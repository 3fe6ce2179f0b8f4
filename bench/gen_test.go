package main

import "testing"

// The generator is the benchmark's input: the same seed must give the
// program byte-identical requests, and another seed different ones.
func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, err := streamHash(w.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := streamHash(w.name, 1)
		other, _ := streamHash(w.name, 2)
		if a != b {
			t.Errorf("%s: seed 1 hashed to %s, then to %s", w.name, a, b)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 generate the same stream", w.name)
		}
	}
	// The two engines must be driven by the identical stream.
	stm, _ := streamHash("lib_stm", 1)
	mv, _ := streamHash("lib_mv", 1)
	if stm != mv {
		t.Errorf("lib_stm and lib_mv streams differ at the same seed")
	}
}

func TestKeyIndexInvertsKeyOf(t *testing.T) {
	for _, i := range []int{0, 7, 99_999, 123_456_789} {
		if got := keyIndex(keyOf(i)); got != i {
			t.Errorf("keyIndex(keyOf(%d)) = %d", i, got)
		}
		if got := keyIndex([]byte(keyOf(i))); got != i {
			t.Errorf("keyIndex of bytes of keyOf(%d) = %d", i, got)
		}
	}
	for _, bad := range []string{"", "user", "user00000000x", "usex000000001", "user0000000001"} {
		if got := keyIndex(bad); got != -1 {
			t.Errorf("keyIndex(%q) = %d, want -1", bad, got)
		}
	}
}
