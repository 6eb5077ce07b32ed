package core

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"periodica/internal/fft"
	"periodica/internal/obs"
)

// DetectCandidatesFile runs the one-pass detection phase over a series
// stored on disk in the binary format of series.WriteBinary, without ever
// loading the series or the FFT working arrays into memory: one streaming
// pass splits the file into per-symbol indicator files, and each indicator
// is autocorrelated with the external (four-step, out-of-core) FFT. This is
// the paper's §3.1 remark — "an external FFT algorithm can be used for large
// sizes of databases mined while on disk" — realized end to end. Once the
// header gives n, psi and maxPeriod are validated exactly as
// DetectCandidatesContext validates them.
func DetectCandidatesFile(path string, psi float64, maxPeriod int) ([]CandidatePeriod, error) {
	ses := &session{eng: EngineFFT, met: obs.Exec()}
	ses.finishSession(sessionConfig{workers: 1})
	return ses.candidates(fileDetect{path: path, psi: psi, maxPeriod: maxPeriod})
}

// fileDetect is the detect stage over an on-disk series: it parses the
// header (learning the session's series bounds and validating the
// parameters against them), splits the stream into per-symbol indicator
// files in one pass, and fills the session's lag counts with the external
// FFT — after which the shared candidate sweep runs unchanged.
type fileDetect struct {
	path      string
	psi       float64
	maxPeriod int
}

func (fileDetect) name() string { return "detect" }

func (st fileDetect) run(ses *session) error {
	f, err := os.Open(st.path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }() // read-only; nothing to lose on close
	br := bufio.NewReader(f)
	header, err := br.ReadString('\n')
	if err != nil {
		return err
	}
	var sigma, n int
	if _, err := fmt.Sscanf(header, "PSER1 %d %d", &sigma, &n); err != nil {
		return fmt.Errorf("core: bad series header %q", header)
	}
	if sigma < 1 || n < 1 {
		return fmt.Errorf("core: bad series header σ=%d n=%d", sigma, n)
	}
	if ses.opt, err = candidateOptions(st.psi, st.maxPeriod, n); err != nil {
		return err
	}
	ses.n, ses.sigma = n, sigma

	work, err := os.MkdirTemp(filepath.Dir(st.path), "periodica-ext-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(work) }() // best-effort temp cleanup

	// One pass: split the symbol stream into σ indicator files.
	indicators := make([]*bufio.Writer, sigma)
	files := make([]*os.File, sigma)
	for k := range indicators {
		if err := ses.sched.Poll(); err != nil {
			return err
		}
		files[k], err = os.Create(filepath.Join(work, fmt.Sprintf("ind-%d.bin", k)))
		if err != nil {
			return err
		}
		indicators[k] = bufio.NewWriter(files[k])
	}
	buf := make([]byte, 64*1024)
	read := 0
	for read < n {
		if err := ses.sched.Poll(); err != nil {
			return err
		}
		want := min(len(buf), n-read)
		got, err := io.ReadFull(br, buf[:want])
		if err != nil {
			return fmt.Errorf("core: truncated series body: %v", err)
		}
		//opvet:ignore ctxpoll bounded by the 64K read chunk; the enclosing loop polls per chunk
		for i := 0; i < got; i++ {
			k := int(buf[i])
			if k >= sigma {
				return fmt.Errorf("core: symbol byte %d at position %d exceeds σ=%d", buf[i], read+i, sigma)
			}
			//opvet:ignore ctxpoll bounded by σ buffered writes; polling per symbol would dominate the pass
			for j := range indicators {
				bit := byte(0)
				if j == k {
					bit = 1
				}
				if err := indicators[j].WriteByte(bit); err != nil {
					return err
				}
			}
		}
		read += got
	}
	for k := range indicators {
		if err := ses.sched.Poll(); err != nil {
			return err
		}
		if err := indicators[k].Flush(); err != nil {
			return err
		}
		if err := files[k].Close(); err != nil {
			return err
		}
	}

	// Autocorrelate each indicator out of core, polling cancellation
	// between symbols (one external FFT is the uninterruptible unit here).
	ses.lag = make([][]int64, sigma)
	for k := 0; k < sigma; k++ {
		if err := ses.sched.Poll(); err != nil {
			return err
		}
		ses.lag[k], err = fft.AutocorrelateFile(filepath.Join(work, fmt.Sprintf("ind-%d.bin", k)), n)
		if err != nil {
			return err
		}
	}
	return nil
}
