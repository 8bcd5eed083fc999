// Package trace serialises dynamic instruction streams to a compact binary
// format and replays them as an oracle.Stream.
//
// A trace stores only what a deterministic replay cannot reconstruct: the
// generator parameters of the program image (as a JSON header) plus, per
// control-transfer instruction, the conditional outcome or indirect target.
// Sequential instructions, direct targets, and return addresses are all
// recomputed during replay, which keeps traces small — a few bits per
// executed branch rather than bytes per instruction.
//
// Format (all integers unsigned varints):
//
//	magic    [8]byte  "FDIPTR01"
//	plen     uvarint  length of params JSON
//	params   []byte   program.Params as JSON
//	seed     uvarint  walker seed (zig-zag encoded)
//	events   ...      one control byte per recorded CTI event:
//	                  bit0 = taken, bit1 = target follows
//	                  if bit1: uvarint (target - image base)
//	until EOF.
package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"fdip/internal/isa"
	"fdip/internal/oracle"
	"fdip/internal/program"
)

var magic = [8]byte{'F', 'D', 'I', 'P', 'T', 'R', '0', '1'}

const (
	flagTaken  = 1 << 0
	flagTarget = 1 << 1
)

// Writer records the CTI events of a dynamic stream.
type Writer struct {
	w     *bufio.Writer
	im    *program.Image
	buf   [binary.MaxVarintLen64 + 1]byte
	count uint64
	err   error
}

// NewWriter writes the header for a trace of a program generated from params
// and walked with the given seed.
func NewWriter(w io.Writer, params program.Params, seed int64, im *program.Image) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing magic: %w", err)
	}
	pj, err := json.Marshal(params)
	if err != nil {
		return nil, fmt.Errorf("trace: encoding params: %w", err)
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(pj)))
	if _, err := bw.Write(tmp[:n]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	if _, err := bw.Write(pj); err != nil {
		return nil, fmt.Errorf("trace: writing params: %w", err)
	}
	n = binary.PutUvarint(tmp[:], zigzag(seed))
	if _, err := bw.Write(tmp[:n]); err != nil {
		return nil, fmt.Errorf("trace: writing seed: %w", err)
	}
	return &Writer{w: bw, im: im}, nil
}

// Append records one executed instruction. Non-CTI instructions and CTIs
// whose outcome is deterministic (direct jumps, calls, returns) are free.
func (tw *Writer) Append(rec oracle.Record) {
	if tw.err != nil {
		return
	}
	var ctrl byte
	needTarget := false
	switch rec.Instr.Kind {
	case isa.CondBranch:
		if rec.Taken {
			ctrl = flagTaken
		}
	case isa.IndirectJump, isa.IndirectCall:
		ctrl = flagTaken | flagTarget
		needTarget = true
	default:
		return // deterministic under replay
	}
	if err := tw.w.WriteByte(ctrl); err != nil {
		tw.err = err
		return
	}
	if needTarget {
		n := binary.PutUvarint(tw.buf[:], rec.NextPC-tw.im.Base)
		if _, err := tw.w.Write(tw.buf[:n]); err != nil {
			tw.err = err
			return
		}
	}
	tw.count++
}

// Events returns the number of CTI events recorded so far.
func (tw *Writer) Events() uint64 { return tw.count }

// Flush drains buffered output and reports any deferred write error.
func (tw *Writer) Flush() error {
	if tw.err != nil {
		return fmt.Errorf("trace: deferred write error: %w", tw.err)
	}
	return tw.w.Flush()
}

// Reader replays a trace as an oracle.Stream. The program image is
// regenerated from the stored parameters, so replay needs no external state.
type Reader struct {
	r      *bufio.Reader
	im     *program.Image
	params program.Params
	seed   int64

	pc    uint64
	stack []uint64
	done  bool
}

// NewReader parses the header and prepares the replay.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("trace: bad magic %q", m)
	}
	plen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if plen > 1<<20 {
		return nil, fmt.Errorf("trace: implausible params length %d", plen)
	}
	pj := make([]byte, plen)
	if _, err := io.ReadFull(br, pj); err != nil {
		return nil, fmt.Errorf("trace: reading params: %w", err)
	}
	var params program.Params
	if err := json.Unmarshal(pj, &params); err != nil {
		return nil, fmt.Errorf("trace: decoding params: %w", err)
	}
	zseed, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading seed: %w", err)
	}
	im, err := program.Generate(params)
	if err != nil {
		return nil, fmt.Errorf("trace: regenerating image: %w", err)
	}
	return &Reader{r: br, im: im, params: params, seed: unzigzag(zseed), pc: im.Entry}, nil
}

// Image returns the regenerated program image backing the replay.
func (tr *Reader) Image() *program.Image { return tr.im }

// Params returns the program parameters stored in the trace header.
func (tr *Reader) Params() program.Params { return tr.params }

// Seed returns the walker seed stored in the trace header.
func (tr *Reader) Seed() int64 { return tr.seed }

// NextInto replays one instruction, filling rec in place. It returns false,
// leaving rec zeroed, once the recorded CTI events are exhausted and the
// replay reaches the next CTI needing one.
func (tr *Reader) NextInto(rec *oracle.Record) bool {
	if !tr.replay(rec) {
		tr.done = true
		*rec = oracle.Record{}
		return false
	}
	return true
}

// replay decodes one instruction into rec, reporting false when the trace
// cannot supply it.
func (tr *Reader) replay(rec *oracle.Record) bool {
	if tr.done {
		return false
	}
	ins, ok := tr.im.InstrAt(tr.pc)
	if !ok {
		return false
	}
	*rec = oracle.Record{PC: tr.pc, Instr: ins, NextPC: isa.NextPC(tr.pc)}
	switch ins.Kind {
	case isa.CondBranch:
		ctrl, err := tr.r.ReadByte()
		if err != nil {
			return false
		}
		rec.Taken = ctrl&flagTaken != 0
		if rec.Taken {
			rec.NextPC = ins.Target
		}
	case isa.Jump:
		rec.Taken = true
		rec.NextPC = ins.Target
	case isa.Call:
		rec.Taken = true
		rec.NextPC = ins.Target
		tr.stack = append(tr.stack, isa.NextPC(tr.pc))
	case isa.IndirectCall, isa.IndirectJump:
		ctrl, err := tr.r.ReadByte()
		if err != nil || ctrl&flagTarget == 0 {
			return false
		}
		off, err := binary.ReadUvarint(tr.r)
		if err != nil {
			return false
		}
		rec.Taken = true
		rec.NextPC = tr.im.Base + off
		if ins.Kind == isa.IndirectCall {
			tr.stack = append(tr.stack, isa.NextPC(tr.pc))
		}
	case isa.Ret:
		rec.Taken = true
		if len(tr.stack) == 0 {
			rec.NextPC = tr.im.Entry
		} else {
			rec.NextPC = tr.stack[len(tr.stack)-1]
			tr.stack = tr.stack[:len(tr.stack)-1]
		}
	}
	tr.pc = rec.NextPC
	return true
}

// ErrTruncated reports a trace ending mid-record.
var ErrTruncated = errors.New("trace: truncated")

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
