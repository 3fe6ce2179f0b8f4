package server

import (
	"net/http"
	"strconv"
)

// The five data handlers below share one shape: take a codec scratch from
// the pool, decode into it (codec.go), run the request's one transaction
// through the router, encode the whole reply into the scratch, write it
// with one Write, and give the scratch back. Failures answer through
// writeError before anything else has been written.

// handleGet serves GET /get?key=K.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key := queryParam(r.URL.RawQuery, "key")
	if key == "" {
		writeError(w, http.StatusBadRequest, "missing key")
		return
	}
	v, ok, err := s.router.Get(key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sc := getScratch()
	sc.replyGet(key, v, ok)
	sc.send(w)
	sc.release()
}

// handlePut serves POST /put {"key": K, "value": V}.
func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer sc.release()
	if status, msg := sc.readBody(r); status != 0 {
		writeError(w, status, msg)
		return
	}
	ops, ok := sc.decodeOp(fKey | fValue)
	if !ok || ops[0].Key == "" {
		writeError(w, http.StatusBadRequest, "want JSON body {key, value} with non-empty key")
		return
	}
	ops[0].Kind = "put"
	if _, err := s.router.Batch(ops); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sc.replyPut()
	sc.send(w)
}

// handleDelete serves POST /delete {"key": K}.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer sc.release()
	if status, msg := sc.readBody(r); status != 0 {
		writeError(w, status, msg)
		return
	}
	ops, ok := sc.decodeOp(fKey)
	if !ok || ops[0].Key == "" {
		writeError(w, http.StatusBadRequest, "want JSON body {key} with non-empty key")
		return
	}
	ops[0].Kind = "delete"
	res, err := s.router.Batch(ops)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sc.replyDelete(res[0].Found)
	sc.send(w)
}

// handleScan serves GET /scan?from=A&to=B&limit=N: the half-open ordered
// range [from, to), merged across shards; empty to means "to the end".
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	q := r.URL.RawQuery
	limit := 0
	if ls := queryParam(q, "limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		limit = n
	}
	kvs, err := s.router.Scan(queryParam(q, "from"), queryParam(q, "to"), limit)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sc := getScratch()
	sc.replyScan(kvs)
	sc.send(w)
	sc.release()
}

// handleBatch serves POST /batch {"ops": [{kind, key, value?, delta?}]}:
// every op in one transactional request, atomic across shards.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer sc.release()
	if status, msg := sc.readBody(r); status != 0 {
		writeError(w, status, msg)
		return
	}
	ops, ok := sc.decodeBatch()
	if !ok {
		writeError(w, http.StatusBadRequest, "want JSON body {ops: [...]}")
		return
	}
	if err := ValidateOps(ops); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	res, err := s.router.Batch(ops)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sc.replyBatch(res)
	sc.send(w)
}

// handleStats serves GET /stats: engine counters (including the
// abort-reason taxonomy), shard sizes, the per-endpoint latency/error
// summary the metrics middleware collects, and — when profiling is on —
// the hottest contention units from the sketch.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	engine, lens := s.router.Stats()
	payload := map[string]any{
		"engine":     s.engine,
		"shards":     s.router.NumShards(),
		"shard_keys": lens,
		"counters":   engine,
		"endpoints":  s.metrics.snapshot(),
	}
	if s.sketch != nil {
		payload["hot_keys"] = s.sketch.Top(10)
	}
	writeJSON(w, http.StatusOK, payload)
}

// handleHealthz serves GET /healthz for load balancers and smoke tests.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
