package oracle

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"failstutter/internal/trace"
)

// Schema identifies the conformance report format.
const Schema = "fstutter-oracle/1"

func jstr(bw *bufio.Writer, s string) {
	bw.WriteString(strconv.Quote(s))
}

// WriteJSON writes the report in canonical byte-deterministic form. The
// header stamps only the run identity (seed, scale): predictions and
// observations are virtual-time quantities with no dependence on shard
// count or host parallelism, and the artifact's byte-identity across
// -shards and -parallel settings is itself part of the contract, so the
// parallelism triple other artifact headers carry is deliberately absent.
func (r *Report) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"schema":`)
	jstr(bw, Schema)
	bw.WriteString(`,"seed":`)
	bw.WriteString(strconv.FormatUint(r.Seed, 10))
	bw.WriteString(`,"quick":`)
	bw.WriteString(strconv.FormatBool(r.Quick))
	bw.WriteString(`,"experiment":`)
	jstr(bw, r.Experiment)
	bw.WriteString(`,"failures":`)
	bw.WriteString(strconv.Itoa(r.Failures()))
	bw.WriteString(`,"rows":[`)
	for i := range r.Rows {
		row := &r.Rows[i]
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n")
		bw.WriteString(`{"model":`)
		jstr(bw, row.Model)
		bw.WriteString(`,"quantity":`)
		jstr(bw, row.Quantity)
		bw.WriteString(`,"predicted":`)
		trace.WriteJSONNum(bw, row.Predicted)
		bw.WriteString(`,"observed":`)
		trace.WriteJSONNum(bw, row.Observed)
		bw.WriteString(`,"residual":`)
		trace.WriteJSONNum(bw, row.Residual())
		bw.WriteString(`,"bound":`)
		jstr(bw, row.Bound.String())
		bw.WriteString(`,"tol":`)
		trace.WriteJSONNum(bw, row.Tol)
		bw.WriteString(`,"pass":`)
		bw.WriteString(strconv.FormatBool(row.Pass()))
		bw.WriteString(`}`)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// WriteText renders the report as an aligned conformance table: one row
// per check, failures marked with FAIL in the status column.
func (r *Report) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	scale := "full"
	if r.Quick {
		scale = "quick"
	}
	fmt.Fprintf(bw, "oracle conformance: %s (seed %d, %s)\n", r.Experiment, r.Seed, scale)
	fmt.Fprintf(bw, "  %-18s %-28s %12s %12s %10s %9s %8s %6s\n",
		"model", "quantity", "predicted", "observed", "residual", "bound", "tol", "ok")
	for _, row := range r.Rows {
		status := "ok"
		if !row.Pass() {
			status = "FAIL"
		}
		fmt.Fprintf(bw, "  %-18s %-28s %12.6g %12.6g %+10.4g %9s %8.3g %6s\n",
			row.Model, row.Quantity, row.Predicted, row.Observed,
			row.Residual(), row.Bound, row.Tol, status)
	}
	if n := r.Failures(); n > 0 {
		fmt.Fprintf(bw, "  %d of %d rows out of band\n", n, len(r.Rows))
	} else {
		fmt.Fprintf(bw, "  all %d rows within tolerance\n", len(r.Rows))
	}
	return bw.Flush()
}
