package main

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tca"
)

// auditResult is the workload auditor's verdict over a run's op log.
type auditResult struct {
	observed   int64
	anomalies  []string
	violations []string
	stats      tca.AuditStats
	observeNs  []float64
	verifyNs   int64
}

// auditLog feeds the workload's Auditor from the benchmark's own op log,
// off the clock: every request is Recorded in submission order, then each
// resolved request is Observed, with its log position when the cell
// stamped one, or Discarded, in completion order. Failed and aborted
// requests never applied on the serializable cells and are discarded; on
// the dataflow cell an accepted request applies even when its handle
// reports an error, so only a shed one is discarded. Verify then checks
// the settled state of cell.
func auditLog(w spec, recs []*opRec, c clock, cell tca.Cell) (auditResult, error) {
	var res auditResult
	aud := w.auditor()
	defer aud.Close()
	id := func(rec *opRec) string { return "r" + strconv.FormatInt(rec.rid, 10) }
	for _, rec := range recs {
		aud.Record(id(rec), rec.op, rec.args)
	}
	byDone := append([]*opRec(nil), recs...)
	sort.SliceStable(byDone, func(i, j int) bool { return byDone[i].done < byDone[j].done })
	for _, rec := range byDone {
		if rec.out != committed && (w.model != tca.StatefulDataflow || errors.Is(rec.err, tca.ErrOverloaded)) {
			aud.Discard(id(rec))
			continue
		}
		start := c.now()
		aud.Observe(tca.Commit{ReqID: id(rec), Op: rec.op, Args: rec.args, Start: c.at(rec.subIn), End: c.at(rec.done), Seq: rec.seq})
		res.observeNs = append(res.observeNs, float64(c.now()-start))
		res.observed++
	}
	start := c.now()
	anomalies, err := aud.Verify(cell)
	res.verifyNs = c.now() - start
	if err != nil {
		return res, fmt.Errorf("verify: %w", err)
	}
	res.anomalies = anomalies
	res.violations = aud.Violations()
	res.stats = aud.Stats()
	return res, nil
}

// check fails unless the audit found the cell exactly consistent with the
// op log: no anomalies, no live violations, every observed commit folded,
// and on the commutative dataflow mix not even a reordering.
func (a auditResult) check(w spec) error {
	var problems []string
	if n := len(a.anomalies); n > 0 {
		problems = append(problems, fmt.Sprintf("%d anomalies (first: %s)", n, a.anomalies[0]))
	}
	if n := len(a.violations); n > 0 {
		problems = append(problems, fmt.Sprintf("%d violations (first: %s)", n, a.violations[0]))
	}
	if a.stats.Observed != a.observed {
		problems = append(problems, fmt.Sprintf("auditor folded %d of %d observed commits", a.stats.Observed, a.observed))
	}
	if w.model == tca.StatefulDataflow && (a.stats.Reordered > 0 || a.stats.GraphCycles > 0) {
		problems = append(problems, fmt.Sprintf("delivery not exact: %d reordered, %d graph cycles", a.stats.Reordered, a.stats.GraphCycles))
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s audit failed: %s", w.name, strings.Join(problems, "; "))
	}
	return nil
}
