package machine

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"fpvm/internal/isa"
)

func mustImage(t *testing.T, prog *isa.Program) *Image {
	t.Helper()
	img, err := NewImage(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestImageSharedAcrossMachines pins that an image is read-only to the
// machines that load it: machines running concurrently over one image
// (under -race) each produce what a machine over a private image produces,
// and the shared stream is the image's, not a copy.
func TestImageSharedAcrossMachines(t *testing.T) {
	prog := resetProg(t)
	var ref bytes.Buffer
	fresh, err := New(prog, &ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Run(0); err != nil {
		t.Fatal(err)
	}

	img := mustImage(t, prog)
	var wg sync.WaitGroup
	outs := make([]bytes.Buffer, 4)
	cycles := make([]uint64, len(outs))
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := NewFromImage(img, &outs[i], 0)
			if err != nil {
				t.Error(err)
				return
			}
			if &m.Insts()[0] != &img.insts[0] {
				t.Error("machine copied the image's instruction stream")
			}
			if err := m.Run(0); err != nil {
				t.Error(err)
			}
			cycles[i] = m.Cycles
		}(i)
	}
	wg.Wait()
	for i := range outs {
		if outs[i].String() != ref.String() || cycles[i] != fresh.Cycles {
			t.Errorf("machine %d over the shared image diverged: %q vs %q, cycles %d vs %d",
				i, outs[i].String(), ref.String(), cycles[i], fresh.Cycles)
		}
	}
}

// TestInstallSites pins the image's correctness-site table: NewImage (or
// WithSites over an already-predecoded image) maps addresses to instructions
// once, InstallSites puts every site into the loading machine's own slots,
// and Reset clears them again.
func TestInstallSites(t *testing.T) {
	prog := resetProg(t)
	plain := mustImage(t, prog)
	if plain.Analyzed() || plain.SiteCount() != 0 {
		t.Fatal("an image built without a table reports one")
	}
	second := plain.insts[1].Addr
	img, err := NewImage(prog, map[uint64]int64{second: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !img.Analyzed() || img.SiteCount() != 1 {
		t.Fatalf("analyzed image: Analyzed %v, SiteCount %d", img.Analyzed(), img.SiteCount())
	}
	m, err := NewFromImage(img, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.CorrectnessSite(second); ok {
		t.Fatal("Load installed sites without InstallSites")
	}
	if n := m.InstallSites(); n != 1 {
		t.Fatalf("InstallSites = %d, want 1", n)
	}
	if id, ok := m.CorrectnessSite(second); !ok || id != 7 {
		t.Fatalf("site at %#x = %d, %v; want 7", second, id, ok)
	}
	if err := m.Reset(img, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.CorrectnessSite(second); ok {
		t.Fatal("Reset kept the previous run's sites")
	}

	shared, err := plain.WithSites(map[uint64]int64{second: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !shared.Analyzed() || shared.SiteCount() != 1 || &shared.insts[0] != &plain.insts[0] {
		t.Fatal("WithSites did not share the predecoded stream under one site")
	}
	if _, err := plain.WithSites(map[uint64]int64{second + 1: 1}); err == nil {
		t.Error("WithSites accepted a site off an instruction boundary")
	}

	if _, err := NewImage(prog, map[uint64]int64{second + 1: 1}); err == nil {
		t.Error("NewImage accepted a site off an instruction boundary")
	}
	if _, err := NewImage(nil, nil); err == nil {
		t.Error("NewImage accepted a nil program")
	}
}

// TestMemSizeCeiling pins isa.MaxMemSize as the machine's memory limit.
func TestMemSizeCeiling(t *testing.T) {
	prog := resetProg(t)
	if _, err := newSized(prog, nil, isa.MaxMemSize+1); err == nil ||
		!strings.Contains(err.Error(), "maximum") {
		t.Errorf("NewFromImage over the ceiling: %v", err)
	}
	m, err := newSized(prog, nil, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(m.Image(), nil, isa.MaxMemSize+1); err == nil {
		t.Error("Reset accepted memory over the ceiling")
	}
	if err := m.Reset(nil, nil, 0); err == nil {
		t.Error("Reset accepted a nil image")
	}
}

// TestPublishTraceFirstWriterWins pins the image's trace table: one trace per
// entry, the first publication kept, and a returned view unaffected by later
// publications.
func TestPublishTraceFirstWriterWins(t *testing.T) {
	img := mustImage(t, resetProg(t))
	if !img.PublishTrace(2, "a") || img.PublishTrace(2, "b") {
		t.Fatal("second publication at one entry was not refused")
	}
	view := img.Traces()
	if !img.PublishTrace(0, "c") {
		t.Fatal("publication at a new entry refused")
	}
	if len(view) != 1 || view[0] != (PublishedTrace{2, "a"}) {
		t.Fatalf("earlier view = %+v", view)
	}
	if got := img.Traces(); len(got) != 2 || got[1] != (PublishedTrace{0, "c"}) {
		t.Fatalf("traces = %+v", got)
	}
}
