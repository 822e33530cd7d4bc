package patch

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/fpvm"
	"fpvm/internal/machine"
)

const holeSrc = `
.data
a: .f64 1.0
slot: .zero 8
.text
	movsd f0, [a]
	divsd f0, =3.0     ; boxed result under FPVM
	movsd [slot], f0   ; source
	mov r0, [slot]     ; sink
	outi r0
	halt
`

func TestApplyAndInstall(t *testing.T) {
	prog := asm.MustAssemble(holeSrc)
	p, err := Apply(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Sites) != 1 {
		t.Fatalf("sites = %d, want 1", len(p.Sites))
	}
	if len(p.Rep.Sources) != 1 {
		t.Fatalf("sources = %d", len(p.Rep.Sources))
	}
	img, err := NewImage(prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.NewFromImage(img, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.InstallSites(); n != 1 {
		t.Fatalf("InstallSites installed %d, want the image's 1", n)
	}
	for addr, id := range p.Sites {
		if got, ok := m.CorrectnessSite(addr); !ok || got != id {
			t.Errorf("site %#x = %d, %v; want Apply's id %d", addr, got, ok, id)
		}
	}
}

// TestEndToEndCorrectness: the patched program run under FPVM produces the
// IEEE bits at the sink; the unpatched one leaks the NaN-box.
func TestEndToEndCorrectness(t *testing.T) {
	runWith := func(install bool) int64 {
		prog := asm.MustAssemble(holeSrc)
		img, err := machine.NewImage(prog, nil)
		if install {
			img, err = NewImage(prog)
		}
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		m, err := machine.NewFromImage(img, &out, 0)
		if err != nil {
			t.Fatal(err)
		}
		m.InstallSites()
		fpvm.Attach(m, fpvm.Config{System: arith.Vanilla{}})
		if err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		var v int64
		if _, err := fmtSscan(out.String(), &v); err != nil {
			t.Fatalf("parse %q: %v", out.String(), err)
		}
		return v
	}
	patched := runWith(true)
	unpatched := runWith(false)
	want := int64(math.Float64bits(1.0 / 3.0))
	if patched != want {
		t.Errorf("patched sink read %#x, want IEEE 1/3 %#x", patched, want)
	}
	if unpatched == want {
		t.Error("unpatched run should leak the box (that's the hole)")
	}
}

// fmtSscan is a minimal integer parser to avoid fmt.Sscan's space handling.
func fmtSscan(s string, v *int64) (int, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var x int64
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		x = x*10 + int64(c-'0')
	}
	if neg {
		x = -x
	}
	*v = x
	return 1, nil
}

func TestSummaryOutput(t *testing.T) {
	prog := asm.MustAssemble(holeSrc)
	p, err := Apply(prog)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	p.Summary(&buf)
	out := buf.String()
	for _, want := range []string{"sources", "sinks", "int-load"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestCleanProgramNoSites(t *testing.T) {
	prog := asm.MustAssemble(`
		mov r0, $1
		outi r0
		halt
	`)
	p, err := Apply(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Sites) != 0 {
		t.Fatalf("clean program has %d sites", len(p.Sites))
	}
}

func TestSiteIDsDistinct(t *testing.T) {
	prog := asm.MustAssemble(`
.data
a: .f64 1.0
s1: .zero 8
s2: .zero 8
.text
	movsd f0, [a]
	movsd [s1], f0
	movsd [s2], f0
	mov r0, [s1]
	mov r1, [s2]
	outi r0
	outi r1
	halt
	`)
	p, err := Apply(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Sites) != 2 {
		t.Fatalf("sites = %d, want 2", len(p.Sites))
	}
	seen := map[int64]bool{}
	for _, id := range p.Sites {
		if seen[id] {
			t.Fatal("duplicate site id")
		}
		seen[id] = true
	}
}
