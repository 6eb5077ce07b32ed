package httpapi

// The distributed shard endpoint and its client. A coordinator cuts a mine
// into (symbol × candidate-period) blocks, POSTs each block to a worker's
// /v1/shard, and merges the returned slots; the wire carries integers only
// (F2, Pairs) so the merged result is byte-identical to a single-process
// mine. Both directions are one binary frame (see the frame layout below),
// checksummed over the bytes sent. The handler reuses the same admission
// gate, request deadline, metrics, and error taxonomy as /v1/mine — a worker
// is just a Server.

import (
	"bytes"
	"cmp"
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

// ShardRequest is one (symbol × period) block of a distributed mine, the
// content of a /v1/shard request frame. The alphabet travels explicitly — a
// discretized series may never use some of its levels, so rebuilding the
// alphabet from the text alone would renumber the symbols and corrupt the
// coordinator's indices.
type ShardRequest struct {
	// ShardID identifies the block within its mine.
	ShardID int
	// Alphabet lists the symbols in coordinator index order.
	Alphabet []string
	// Symbols is the full series text; every rune must name an Alphabet
	// symbol.
	Symbols string

	// Query is the mine's pattern query in canonical form
	// (query.Spec.Render), and it is required. The worker compiles it and
	// overrides only the period band below, so every worker runs the query
	// the coordinator normalized once.
	Query string

	// MinPeriod and MaxPeriod are the shard's candidate-period band,
	// inclusive, already normalized by the coordinator.
	MinPeriod int
	MaxPeriod int
	// SymbolLo and SymbolHi restrict the sweep to symbols [lo, hi).
	SymbolLo int
	SymbolHi int
	// Survivors are the coordinator's precomputed sweep results for this
	// shard: entry i lists, strictly ascending, the symbols in [SymbolLo,
	// SymbolHi) still viable at period MinPeriod+i. The worker resolves
	// exactly those cells and never re-runs detection over the whole series.
	// They are required: a request whose list count differs from the band's
	// period count, omitted lists included, is a 400.
	Survivors [][]int32
}

// ShardSlot is one symbol periodicity on the wire. Integers only: the
// coordinator re-derives each confidence as F2/Pairs, so no float crosses
// the network and no decimal round-trip can perturb the merged result. The
// JSON tags are the resume journal's record format.
type ShardSlot struct {
	Symbol   int `json:"symbol"`
	Period   int `json:"period"`
	Position int `json:"position"`
	F2       int `json:"f2"`
	Pairs    int `json:"pairs"`
}

// ShardResponse is a verified /v1/shard response frame: its slots, and the
// frame bytes they were decoded from. Two responses to one request frame
// carry the same slots exactly when their frames are equal.
type ShardResponse struct {
	Slots []ShardSlot
	Frame []byte
}

// The frame layout. Every frame is a 4-byte magic whose last byte is the
// wire version, a little-endian payload of uint32 fields, and a CRC-32C of
// everything before it. Strings and lists are a uint32 count and then their
// elements.
//
//	request:  "PSQ" 1 | shardID minPeriod maxPeriod symbolLo symbolHi |
//	          alphabet (count, then each symbol's bytes) | query | symbols |
//	          survivors (period count, then each period's symbol list) | crc
//	response: "PSA" 1 | echo (the request frame's crc) | slot count |
//	          symbol period position f2 pairs per slot | crc
//
// A response answers exactly the request whose CRC it echoes, so the echo
// covers the block, alphabet, query, series text and survivors at once.
const (
	shardRequestMagic  = "PSQ\x01"
	shardResponseMagic = "PSA\x01"
	shardSlotBytes     = 5 * 4
)

var shardCRCTable = crc32.MakeTable(crc32.Castagnoli)

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

// EncodeShardRequest encodes req as a request frame.
func EncodeShardRequest(req *ShardRequest) []byte {
	size := len(shardRequestMagic) + 4*9 + len(req.Query) + len(req.Symbols) + 4
	for _, sym := range req.Alphabet {
		size += 4 + len(sym)
	}
	for _, list := range req.Survivors {
		size += 4 + 4*len(list)
	}
	b := make([]byte, 0, size)
	b = append(b, shardRequestMagic...)
	for _, v := range [...]int{req.ShardID, req.MinPeriod, req.MaxPeriod, req.SymbolLo, req.SymbolHi, len(req.Alphabet)} {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	putString := func(s string) {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	for _, sym := range req.Alphabet {
		putString(sym)
	}
	putString(req.Query)
	putString(req.Symbols)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(req.Survivors)))
	for _, list := range req.Survivors {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(list)))
		for _, k := range list {
			b = binary.LittleEndian.AppendUint32(b, uint32(k))
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, shardCRCTable))
}

// DecodeShardRequest decodes a request frame, rejecting a wrong magic or
// version, a CRC mismatch, and any count that exceeds the bytes left.
func DecodeShardRequest(frame []byte) (*ShardRequest, error) {
	r, err := openFrame(frame, shardRequestMagic, "request")
	if err != nil {
		return nil, err
	}
	req := &ShardRequest{
		ShardID: int(r.u32()), MinPeriod: int(r.u32()), MaxPeriod: int(r.u32()),
		SymbolLo: int(r.u32()), SymbolHi: int(r.u32()),
	}
	req.Alphabet = make([]string, r.count(4))
	for i := range req.Alphabet {
		req.Alphabet[i] = string(r.bytes())
	}
	req.Query = string(r.bytes())
	req.Symbols = string(r.bytes())
	if n := r.count(4); n > 0 {
		req.Survivors = make([][]int32, n)
		flat := make([]int32, 0, len(r.b)/4-n)
		for i := range req.Survivors {
			start := len(flat)
			for k := r.count(4); k > 0; k-- {
				flat = append(flat, int32(r.u32()))
			}
			if len(flat) > start {
				req.Survivors[i] = flat[start:len(flat):len(flat)]
			}
		}
	}
	return req, r.done()
}

// EncodeShardResponse encodes slots as the response frame answering the
// request frame reqFrame, whose CRC it echoes.
func EncodeShardResponse(reqFrame []byte, slots []ShardSlot) []byte {
	b := make([]byte, 0, len(shardResponseMagic)+12+shardSlotBytes*len(slots))
	b = append(b, shardResponseMagic...)
	b = append(b, reqFrame[len(reqFrame)-4:]...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(slots)))
	for _, sl := range slots {
		for _, v := range [...]int{sl.Symbol, sl.Period, sl.Position, sl.F2, sl.Pairs} {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, shardCRCTable))
}

// VerifyShardResponse decodes a response frame and accepts it only as an
// answer to the request frame reqFrame: the frame's CRC holds over the
// bytes received, and its echo equals reqFrame's CRC. Nothing is allocated
// for a slot count the frame's length cannot hold.
func VerifyShardResponse(reqFrame, frame []byte) (*ShardResponse, error) {
	r, err := openFrame(frame, shardResponseMagic, "response")
	if err != nil {
		return nil, err
	}
	if echo, want := r.u32(), binary.LittleEndian.Uint32(reqFrame[len(reqFrame)-4:]); echo != want {
		return nil, fmt.Errorf("echo mismatch: sent request %08x, response answers %08x", want, echo)
	}
	slots := make([]ShardSlot, r.count(shardSlotBytes))
	for i := range slots {
		slots[i] = ShardSlot{Symbol: int(r.u32()), Period: int(r.u32()), Position: int(r.u32()),
			F2: int(r.u32()), Pairs: int(r.u32())}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return &ShardResponse{Slots: slots, Frame: frame}, nil
}

// openFrame checks a frame's magic and CRC and returns a reader over its
// payload.
func openFrame(frame []byte, magic, kind string) (*frameReader, error) {
	if len(frame) < len(magic)+4 || string(frame[:len(magic)]) != magic {
		return nil, fmt.Errorf("body is not a shard %s frame v%d", kind, magic[len(magic)-1])
	}
	body, sum := frame[:len(frame)-4], binary.LittleEndian.Uint32(frame[len(frame)-4:])
	if got := crc32.Checksum(body, shardCRCTable); got != sum {
		return nil, fmt.Errorf("%s frame checksum mismatch: frame declares %08x, bytes hash to %08x", kind, sum, got)
	}
	return &frameReader{b: body[len(magic):]}, nil
}

// frameReader reads little-endian uint32 fields off a frame payload; the
// first read past the end latches an error and every later read yields zero.
type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) u32() uint32 {
	if len(r.b) < 4 {
		r.err, r.b = cmp.Or(r.err, errors.New("frame truncated")), nil
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// count reads an element count and checks that that many elements of size
// bytes fit in what remains, so no count can size an allocation past the
// frame.
func (r *frameReader) count(size int) int {
	n := r.u32()
	if uint64(n)*uint64(size) > uint64(len(r.b)) {
		r.err, r.b = cmp.Or(r.err, fmt.Errorf("count %d exceeds the %d frame bytes left", n, len(r.b))), nil
		return 0
	}
	return int(n)
}

func (r *frameReader) bytes() []byte {
	n := r.count(1)
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// done reports the first read error, or trailing bytes after the payload.
func (r *frameReader) done() error {
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%d trailing bytes after the frame payload", len(r.b))
	}
	return r.err
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
	frame, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
				Error: fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	req, err := DecodeShardRequest(frame)
	if err != nil {
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
	opt, err := shardOptions(req)
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
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(EncodeShardResponse(frame, WireSlots(slots)))
}

// WireSlots converts core periodicities to wire slots, the form both a
// worker's answer and a coordinator's locally computed shard take.
func WireSlots(in []core.SymbolPeriodicity) []ShardSlot {
	out := make([]ShardSlot, 0, len(in))
	for _, sp := range in {
		out = append(out, ShardSlot{Symbol: sp.Symbol, Period: sp.Period, Position: sp.Position, F2: sp.F2, Pairs: sp.Pairs})
	}
	return out
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
// trusted: a short or unreadable body, a wrong magic or version, a CRC
// mismatch, or an echo of another request. Always retryable — the worker
// may answer correctly next time — but counted separately from status
// failures so corruption is visible in metrics.
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

// MineShard POSTs one request frame (EncodeShardRequest) to a worker and
// returns the response VerifyShardResponse accepts as its answer.
func (c *ShardClient) MineShard(ctx context.Context, worker string, frame []byte) (*ShardResponse, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/v1/shard", bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/octet-stream")
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
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		// A body cut off in transit is the same trust failure as a CRC
		// mismatch, so classify it the same way.
		return nil, &ShardIntegrityError{Worker: worker, Detail: fmt.Sprintf("unreadable response: %v", err)}
	}
	out, err := VerifyShardResponse(frame, body)
	if err != nil {
		return nil, &ShardIntegrityError{Worker: worker, Detail: err.Error()}
	}
	return out, nil
}
