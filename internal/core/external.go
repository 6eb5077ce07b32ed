package core

import (
	"os"

	"periodica/internal/conv"
	"periodica/internal/obs"
	"periodica/internal/series"
)

// DetectCandidatesFile runs the detection phase over a series stored on disk
// by series.WriteBinary in one streaming pass through the block kernel
// (conv.LagMatchCountsStream): O(σ·B) state for B = NextPow2(maxPeriod), no
// scratch files, the series never loaded. This is the paper's §3.1 remark
// that "an external FFT algorithm can be used for large sizes of databases
// mined while on disk". The header is checked against the file's size before
// anything is sized from it; once it gives n, psi and [minPeriod, maxPeriod]
// are validated exactly as DetectCandidatesRange validates them.
func DetectCandidatesFile(path string, psi float64, minPeriod, maxPeriod int) ([]CandidatePeriod, error) {
	ses := &session{eng: EngineFFT, met: obs.Exec()}
	ses.finishSession(sessionConfig{workers: 1})
	return ses.candidates(fileDetect{path: path, psi: psi, minPeriod: minPeriod, maxPeriod: maxPeriod})
}

// fileDetect is the detect stage over an on-disk series: it learns n and σ
// from the header and streams the body into the session's lag counts, for
// the shared candidate sweep.
type fileDetect struct {
	path                 string
	psi                  float64
	minPeriod, maxPeriod int
}

func (fileDetect) name() string { return "detect" }

func (st fileDetect) run(ses *session) error {
	f, err := os.Open(st.path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }() // read-only; nothing to lose on close
	info, err := f.Stat()
	if err != nil {
		return err
	}
	r, err := series.NewBinaryReader(f, info.Size())
	if err != nil {
		return err
	}
	if ses.opt, err = candidateOptions(st.psi, st.minPeriod, st.maxPeriod, r.N); err != nil {
		return err
	}
	ses.n, ses.sigma = r.N, r.Sigma
	ses.lag, err = conv.LagMatchCountsStream(r, ses.opt.MaxPeriod, ses.sched, ses.fftWorkers)
	return err
}
