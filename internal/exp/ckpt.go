package exp

import (
	"errors"
	"fmt"
	"path/filepath"

	"fbplace/internal/netlist"
	"fbplace/internal/placer"
)

// Checkpoint wiring for the harness: cmd/fbpbench sets a directory via
// SetCheckpoint and every placer run in the experiment tables gets its own
// numbered subdirectory. With resume enabled, each run first tries to
// continue from its subdirectory and falls back to a fresh start when no
// usable snapshot exists — so re-running an interrupted benchmark skips
// the levels that already completed.
var (
	ckptDir    string
	ckptResume bool
	ckptSeq    int
	certifyOn  bool
)

// SetCertify enables independent result certification (every level plus
// the final placement, internal/certify) for all subsequent table runs —
// the overhead shows up in the per-table phase times.
func SetCertify(on bool) { certifyOn = on }

// SetCheckpoint enables per-run checkpointing under dir for all subsequent
// table runs ("" disables it). Run numbering restarts, so a resumed
// process must execute the same tables in the same order to line up with
// the checkpoints of the interrupted one.
func SetCheckpoint(dir string, resume bool) {
	ckptDir, ckptResume, ckptSeq = dir, resume, 0
}

// runPlace is the single chokepoint through which the experiment tables
// invoke the FBP placer, so checkpointing applies uniformly.
func runPlace(n *netlist.Netlist, cfg placer.Config) (*placer.Report, error) {
	if certifyOn {
		cfg.Certify = placer.CertifyEveryLevel
	}
	if ckptDir == "" {
		return placer.PlaceCtx(harnessCtx(), n, cfg)
	}
	ckptSeq++
	dir := filepath.Join(ckptDir, fmt.Sprintf("run-%04d", ckptSeq))
	cfg.Checkpoint = placer.Checkpoint{Dir: dir}
	if ckptResume {
		rep, err := placer.Resume(harnessCtx(), n, dir, cfg)
		var re *placer.ResumeError
		if !errors.As(err, &re) {
			return rep, err
		}
		// No loadable/matching snapshot for this run: start fresh.
	}
	return placer.PlaceCtx(harnessCtx(), n, cfg)
}
