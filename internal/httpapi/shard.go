package httpapi

// The distributed shard endpoint and its client. A coordinator cuts a mine
// into (symbol × candidate-period) blocks, POSTs each block to a worker's
// /v1/shard, and merges the returned slots; the wire carries integers only
// (F2, Pairs) so the merged result is byte-identical to a single-process
// mine. The handler reuses the same admission gate, request deadline,
// metrics, and error taxonomy as /v1/mine — a worker is just a Server.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"periodica"
	"periodica/internal/alphabet"
	"periodica/internal/core"
	"periodica/internal/query"
	"periodica/internal/series"
)

// Distributor shards a mine across worker nodes. When Config.Distributor is
// set, /v1/mine routes through it instead of mining in-process; the
// implementation lives in internal/dist (the interface is declared here so
// httpapi does not import its own client's consumer).
type Distributor interface {
	Mine(ctx context.Context, s *periodica.Series, opt periodica.Options) (*periodica.Result, error)
}

// ShardRequest is the body of POST /v1/shard: one (symbol × period) block of
// a distributed mine. The alphabet travels explicitly — a discretized series
// may never use some of its levels, so rebuilding the alphabet from the text
// alone would renumber the symbols and corrupt the coordinator's indices.
type ShardRequest struct {
	// ShardID identifies the block within its mine; the response echoes it,
	// which makes hedged duplicate responses safe to deduplicate.
	ShardID int `json:"shardId"`
	// Alphabet lists the symbols in coordinator index order.
	Alphabet []string `json:"alphabet"`
	// Symbols is the full series text; every rune must name an Alphabet
	// symbol.
	Symbols string `json:"symbols"`

	// Query is the mine's pattern query in canonical form
	// (query.Spec.Render), and it is required. The worker compiles it and
	// overrides only the period band below, so every worker runs the query
	// the coordinator normalized once.
	Query string `json:"query"`

	// MinPeriod and MaxPeriod are the shard's candidate-period band,
	// inclusive, already normalized by the coordinator.
	MinPeriod int `json:"minPeriod"`
	MaxPeriod int `json:"maxPeriod"`
	// SymbolLo and SymbolHi restrict the sweep to symbols [lo, hi).
	SymbolLo int `json:"symbolLo"`
	SymbolHi int `json:"symbolHi"`
	// Survivors are the coordinator's precomputed sweep results for this
	// shard: entry i lists, strictly ascending, the symbols in [SymbolLo,
	// SymbolHi) still viable at period MinPeriod+i. The worker resolves
	// exactly those cells and never re-runs detection over the whole series.
	// They are required: a request whose list count differs from the band's
	// period count, omitted lists included, is a 400.
	Survivors [][]int32 `json:"survivors,omitempty"`
}

// ShardSlot is one symbol periodicity on the wire. Integers only: the
// coordinator re-derives each confidence as F2/Pairs, so no float crosses
// the network and no decimal round-trip can perturb the merged result.
type ShardSlot struct {
	Symbol   int `json:"symbol"`
	Period   int `json:"period"`
	Position int `json:"position"`
	F2       int `json:"f2"`
	Pairs    int `json:"pairs"`
}

// ShardResponse is the body of a successful POST /v1/shard. Beyond the
// slots it echoes the request coordinates it answered (shard ID, period
// band, symbol range, alphabet hash) and carries a checksum over the whole
// payload, so a coordinator can tell a corrupted or misrouted reply from a
// genuine one before merging — merging a wrong slot silently changes the
// mine's bytes, which the distributed tier promises never happens.
type ShardResponse struct {
	ShardID int         `json:"shardId"`
	Slots   []ShardSlot `json:"slots"`
	// MinPeriod..SymbolHi echo the request block this response answers.
	MinPeriod int `json:"minPeriod"`
	MaxPeriod int `json:"maxPeriod"`
	SymbolLo  int `json:"symbolLo"`
	SymbolHi  int `json:"symbolHi"`
	// AlphaCRC is AlphabetCRC of the request's alphabet: a response computed
	// against a different symbol numbering must never be merged.
	AlphaCRC uint32 `json:"alphaCrc"`
	// QueryCRC is QueryStringCRC of the request's Query: a response mined
	// under a different query must never be merged, even if its block
	// coordinates line up.
	QueryCRC uint32 `json:"queryCrc,omitempty"`
	// Checksum is ShardChecksum over every other field, computed by the
	// worker and verified by the client. JSON is self-describing enough that
	// truncation breaks decoding, but a bit flip inside a digit is valid
	// JSON; the checksum turns it into a detected integrity failure.
	Checksum uint32 `json:"checksum"`
}

// AlphabetCRC hashes a symbol list order-sensitively (each symbol
// length-prefixed, so ["ab","c"] and ["a","bc"] differ).
func AlphabetCRC(symbols []string) uint32 {
	h := crc32.New(shardCRCTable)
	var pre [8]byte
	for _, s := range symbols {
		binary.LittleEndian.PutUint64(pre[:], uint64(len(s)))
		_, _ = h.Write(pre[:])
		_, _ = h.Write([]byte(s))
	}
	return h.Sum32()
}

var shardCRCTable = crc32.MakeTable(crc32.Castagnoli)

// QueryStringCRC hashes a canonical query string for the QueryCRC echo.
func QueryStringCRC(query string) uint32 {
	return crc32.Checksum([]byte(query), shardCRCTable)
}

// ShardChecksum is the CRC-32C of a response's canonical encoding: every
// field except Checksum itself, little-endian, slots in wire order. Both
// sides compute it from their own decoded values, so any field the network
// perturbed — slot integers, echoes, even slot count — mismatches.
func ShardChecksum(resp *ShardResponse) uint32 {
	buf := make([]byte, 0, 56+40*len(resp.Slots))
	put := func(v int) { buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(v))) }
	put(resp.ShardID)
	put(resp.MinPeriod)
	put(resp.MaxPeriod)
	put(resp.SymbolLo)
	put(resp.SymbolHi)
	buf = binary.LittleEndian.AppendUint32(buf, resp.AlphaCRC)
	buf = binary.LittleEndian.AppendUint32(buf, resp.QueryCRC)
	put(len(resp.Slots))
	for _, sl := range resp.Slots {
		put(sl.Symbol)
		put(sl.Period)
		put(sl.Position)
		put(sl.F2)
		put(sl.Pairs)
	}
	return crc32.Checksum(buf, shardCRCTable)
}

// shardOptions resolves a shard request to mining options: it compiles the
// request's query and overrides the per-shard period band, so
// core.OptionsFromSpec is the one conversion point and the shard wire
// cannot drift from what the other layers accept.
func shardOptions(req *ShardRequest) (core.Options, error) {
	if req.Query == "" {
		return core.Options{}, errors.New("query required")
	}
	sp, err := query.Compile(req.Query)
	if err != nil {
		return core.Options{}, err
	}
	sp.MinPeriod, sp.MaxPeriod = req.MinPeriod, req.MaxPeriod
	return core.OptionsFromSpec(sp)
}

func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST required"})
		return
	}
	var req ShardRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
				Error: fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	alpha, err := alphabet.New(req.Alphabet...)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	ser, err := series.FromAlphabetText(alpha, req.Symbols)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	opt, err := shardOptions(&req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestContext(r)
	defer cancel()
	start := time.Now()
	slots, err := core.MineShardSlotsFromSurvivors(ctx, ser, opt, req.SymbolLo, req.SymbolHi, req.Survivors)
	s.metrics.Endpoint("/v1/shard").ObserveMine(time.Since(start))
	if err != nil {
		s.writeMineError(w, r, err)
		return
	}
	resp := ShardResponse{
		ShardID: req.ShardID, Slots: make([]ShardSlot, 0, len(slots)),
		MinPeriod: req.MinPeriod, MaxPeriod: req.MaxPeriod,
		SymbolLo: req.SymbolLo, SymbolHi: req.SymbolHi,
		AlphaCRC: AlphabetCRC(req.Alphabet),
		QueryCRC: QueryStringCRC(req.Query),
	}
	for _, sp := range slots {
		resp.Slots = append(resp.Slots, ShardSlot{
			Symbol: sp.Symbol, Period: sp.Period, Position: sp.Position,
			F2: sp.F2, Pairs: sp.Pairs,
		})
	}
	resp.Checksum = ShardChecksum(&resp)
	writeJSON(w, http.StatusOK, resp)
}

// ShardClient issues /v1/shard calls against worker base URLs on behalf of
// the coordinator.
type ShardClient struct {
	// HTTP is the underlying client; nil means http.DefaultClient.
	HTTP *http.Client
}

// WorkerStatusError is a non-200 /v1/shard reply.
type WorkerStatusError struct {
	Worker string
	Status int
	Msg    string
	// RetryAfter is the worker's Retry-After header as a duration (integer
	// seconds, clamped to [1s, 30s]); zero when absent or unparseable. The
	// coordinator uses it as a floor under its own backoff.
	RetryAfter time.Duration
}

func (e *WorkerStatusError) Error() string {
	return fmt.Sprintf("worker %s: status %d: %s", e.Worker, e.Status, e.Msg)
}

// parseRetryAfter reads an integer-seconds Retry-After value. The HTTP-date
// form is ignored — a fault injector or shedding worker sends seconds, and a
// wall-clock comparison would make backoff depend on clock skew.
func parseRetryAfter(header string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(header))
	if err != nil || secs <= 0 {
		return 0
	}
	const maxRetryAfter = 30 * time.Second
	d := time.Duration(secs) * time.Second
	if d > maxRetryAfter {
		return maxRetryAfter
	}
	return d
}

// ShardIntegrityError is a /v1/shard reply that arrived but cannot be
// trusted: undecodable body, wrong echo coordinates, or checksum mismatch.
// Always retryable — the worker may answer correctly next time — but counted
// separately from status failures so corruption is visible in metrics.
type ShardIntegrityError struct {
	Worker string
	Detail string
}

func (e *ShardIntegrityError) Error() string {
	return fmt.Sprintf("worker %s: shard integrity: %s", e.Worker, e.Detail)
}

// Retryable reports whether another attempt could succeed: the worker shed
// the request (429) or failed server-side (5xx), as opposed to rejecting the
// request outright (4xx), which every retry would repeat.
func (e *WorkerStatusError) Retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// MineShard POSTs one shard to a worker and returns its slots. The response
// must echo the request's shard ID.
func (c *ShardClient) MineShard(ctx context.Context, worker string, req *ShardRequest) (*ShardResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/v1/shard", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(hr)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }() // response fully read or discarded below
	if resp.StatusCode != http.StatusOK {
		msg := ""
		if b, rerr := io.ReadAll(io.LimitReader(resp.Body, 4096)); rerr == nil {
			var er ErrorResponse
			if json.Unmarshal(b, &er) == nil && er.Error != "" {
				msg = er.Error
			} else {
				msg = strings.TrimSpace(string(b))
			}
		}
		return nil, &WorkerStatusError{
			Worker: worker, Status: resp.StatusCode, Msg: msg,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	var out ShardResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		// Truncated or mangled beyond JSON: same trust failure as a checksum
		// mismatch, so classify it the same way.
		return nil, &ShardIntegrityError{Worker: worker, Detail: fmt.Sprintf("undecodable response: %v", err)}
	}
	if err := VerifyShardResponse(req, &out); err != nil {
		return nil, &ShardIntegrityError{Worker: worker, Detail: err.Error()}
	}
	return &out, nil
}

// VerifyShardResponse checks a decoded response against the request it
// answers: checksum first (any perturbed field), then the echoes (a
// well-formed response to the wrong question). Exported so double-dispatch
// verification can reuse the exact acceptance rule.
func VerifyShardResponse(req *ShardRequest, resp *ShardResponse) error {
	if got := ShardChecksum(resp); got != resp.Checksum {
		return fmt.Errorf("checksum mismatch: response declares %08x, contents hash to %08x", resp.Checksum, got)
	}
	if resp.ShardID != req.ShardID {
		return fmt.Errorf("shard id mismatch: sent %d, got %d", req.ShardID, resp.ShardID)
	}
	if resp.MinPeriod != req.MinPeriod || resp.MaxPeriod != req.MaxPeriod ||
		resp.SymbolLo != req.SymbolLo || resp.SymbolHi != req.SymbolHi {
		return fmt.Errorf("block echo mismatch: sent periods [%d,%d] symbols [%d,%d), got periods [%d,%d] symbols [%d,%d)",
			req.MinPeriod, req.MaxPeriod, req.SymbolLo, req.SymbolHi,
			resp.MinPeriod, resp.MaxPeriod, resp.SymbolLo, resp.SymbolHi)
	}
	if want := AlphabetCRC(req.Alphabet); resp.AlphaCRC != want {
		return fmt.Errorf("alphabet hash mismatch: request alphabet hashes to %08x, response answered %08x", want, resp.AlphaCRC)
	}
	if want := QueryStringCRC(req.Query); resp.QueryCRC != want {
		return fmt.Errorf("query hash mismatch: request query hashes to %08x, response answered %08x", want, resp.QueryCRC)
	}
	return nil
}
