// Fixture for the spanend analyzer, type-checked against the real
// fbplace/internal/obs package.
package kernel

import "fbplace/internal/obs"

func work() error { return nil }

func goodDefer(rec *obs.Recorder) {
	sp := rec.StartSpan("good")
	defer sp.End()
}

func goodExplicitBothPaths(rec *obs.Recorder) error {
	sp := rec.StartSpan("phase")
	if err := work(); err != nil {
		sp.End()
		return err
	}
	sp.End()
	return nil
}

func leakyVar(rec *obs.Recorder) *obs.Recorder {
	sp := rec.StartSpan("leaky") // violation: no End on any path
	_ = sp
	return rec
}

func discarded(rec *obs.Recorder) {
	rec.StartSpan("discarded") // violation: result discarded
}

func blank(rec *obs.Recorder) {
	_ = rec.StartSpan("blank") // violation: assigned to blank
}

func escapes(rec *obs.Recorder) *obs.Span {
	return rec.StartSpan("escapes") // clean: caller owns the span
}

func suppressed(rec *obs.Recorder) {
	//fbpvet:spanok fixture: deliberately dangling
	rec.StartSpan("suppressed")
}
