package program_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"fdip/internal/isa"
	"fdip/internal/program"
	"fdip/internal/workloads"
)

// imageDigests pins, per built-in workload, FNV-64a digests of the decoded
// code (InstrAt over every word), of every behaviour record, and of the
// function directory. Any change to an image's layout or encoding must
// leave these unchanged. The dispatch Weights are left out: they come from
// math.Pow, whose bits differ between FMA and non-FMA hosts.
var imageDigests = map[string][3]uint64{
	"gcc":       {0x583bf40f3ec25ef7, 0xcd59c3f24c3a330c, 0x4268a54c23579a44},
	"go":        {0x4c839dc34d8cfd72, 0x3084974fbdc4b7cb, 0x0fe3d7d19bb7ec93},
	"groff":     {0x37214118cc38bc8e, 0x82246b14c8fba4e4, 0xbf05d3be6b6b5a75},
	"m88ksim":   {0x8e5ac25745f81e57, 0xc3a58b51dad633aa, 0xdf3221f394c6d9f5},
	"perl":      {0x750ebd14a5d25a6f, 0x6ebf371d8200c773, 0x2a861cb5dd499eef},
	"vortex":    {0x9f01dd0a5615540f, 0xb6ba9a5d363afd1e, 0x54161aad3dc8cefd},
	"deltablue": {0xd733c59d92dc8b89, 0xf56846ba914e34c1, 0x3f6e1fee61ee4383},
	"tex":       {0xfdcf6bbf115908d3, 0xd6359749e69a8383, 0xbba680926b0425a5},
}

// digestWriter feeds fixed-width little-endian fields into one FNV hash.
type digestWriter struct {
	h   hash.Hash64
	buf [8]byte
}

func (d *digestWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digestWriter) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

// digestImage returns the code, behaviour and function digests of im.
func digestImage(im *program.Image) [3]uint64 {
	code := digestWriter{h: fnv.New64a()}
	for pc := im.Base; pc < im.End(); pc += isa.InstrBytes {
		ins, ok := im.InstrAt(pc)
		if !ok {
			panic("InstrAt refused an in-image address")
		}
		code.u64(uint64(ins.Kind) | uint64(ins.Dst)<<8 | uint64(ins.Src1)<<16 | uint64(ins.Src2)<<24)
		code.u64(ins.Target)
	}

	behav := digestWriter{h: fnv.New64a()}
	for _, b := range im.Branches() {
		behav.u64(uint64(b.Word))
		behav.u64(uint64(b.Model))
		behav.u64(uint64(b.MeanTrip))
		behav.u64(uint64(b.Pattern) | uint64(b.PatternLen)<<32)
		behav.u64(uint64(len(b.Targets)))
		for _, t := range b.Targets {
			behav.u64(t)
		}
		behav.u64(math.Float64bits(b.TakenProb))
		behav.u64(math.Float64bits(b.Sticky))
	}

	funcs := digestWriter{h: fnv.New64a()}
	for _, f := range im.Funcs {
		funcs.str(f.Name)
		funcs.u64(f.Entry)
		funcs.u64(uint64(f.NumInstrs))
	}
	return [3]uint64{code.h.Sum64(), behav.h.Sum64(), funcs.h.Sum64()}
}

// TestImageDigests holds every built-in image to its pinned digests, so an
// image's content is bit-identical across encodings and hosts.
func TestImageDigests(t *testing.T) {
	all := workloads.All()
	if len(all) != len(imageDigests) {
		t.Errorf("%d workloads, %d pinned digests", len(all), len(imageDigests))
	}
	for _, wl := range all {
		im, err := program.Generate(wl.Params)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		got, want := digestImage(im), imageDigests[wl.Name]
		for i, part := range []string{"code", "behaviour", "funcs"} {
			if got[i] != want[i] {
				t.Errorf("%s: %s digest %#x, want %#x", wl.Name, part, got[i], want[i])
			}
		}
	}
}
