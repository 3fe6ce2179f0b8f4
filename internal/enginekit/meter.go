package enginekit

import "repro/stm/budget"

// The work meter: the STM analogue of a VM gas meter. Begin samples the
// policy's grant once per call; the engine debits it per operation, per
// read/write-set entry, per entry of hidden revalidation work and per
// retry, and a call that runs dry aborts with budget.ErrOutOfBudget.

// BudgetSignal is panicked by Charge when the grant is exhausted;
// RunAttempt translates it into CtlBudget. It is raised only where the
// engine holds no locks.
type BudgetSignal struct{}

// Metered reports whether this call runs under a budget. Call sites use
// it to skip computing a charge nobody will debit.
func (d *Desc) Metered() bool { return d.flags&flagMeter != 0 }

// Left is the unspent part of the call's grant.
func (d *Desc) Left() uint64 { return d.left }

// Charge debits n work units, aborting the attempt via BudgetSignal when
// the grant does not cover them (the grant is then left untouched).
// Callers must hold no engine locks.
func (d *Desc) Charge(n uint64) {
	if d.flags&flagMeter == 0 || n == 0 {
		return
	}
	if d.left < n {
		d.flags |= flagExceeded
		panic(BudgetSignal{})
	}
	d.left -= n
}

// ChargeSoft debits n work units, reporting exhaustion instead of
// panicking — for a commit path that must release its locks through
// normal control flow, and for the retry charge, which runs outside
// RunAttempt's recover.
func (d *Desc) ChargeSoft(n uint64) bool {
	if d.flags&flagMeter == 0 || n == 0 {
		return true
	}
	if d.left < n {
		d.flags |= flagExceeded
		return false
	}
	d.left -= n
	return true
}

// BudgetAbort books a metering abort and returns the sentinel error; the
// engine releases the descriptor and hands the error to the caller. The
// failed attempt is already in Aborts (see Failed); this counts the
// budget subset and its taxonomy class, which mirror each other exactly
// because both are counted here, once per exhausted call, and not at the
// individual charge sites.
func (d *Desc) BudgetAbort() error {
	d.c.BudgetAborts.Add(1)
	d.c.Reasons[Budget].Add(1)
	return budget.ErrOutOfBudget
}
