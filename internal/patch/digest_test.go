package patch_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpvm/internal/machine"
	"fpvm/internal/oracle"
	"fpvm/internal/patch"
	"fpvm/internal/vsa"
)

// analysisDigestFile pins the static analysis of every oracle target (each
// Figure 12 workload and each example): one line per target,
// "<report digest> <site-table digest> <name>".
const analysisDigestFile = "testdata/analysis_digests.txt"

// hashSites folds one class of VSA sites into h: address, instruction and
// reason, in report order.
func hashSites(h hash.Hash, class string, sites []vsa.Site) {
	fmt.Fprintf(h, "%s %d\n", class, len(sites))
	for _, s := range sites {
		fmt.Fprintf(h, "%#x %v %q\n", s.Addr, s.Inst, s.Reason)
	}
}

// reportDigest hashes everything vsa.Analyze reports.
func reportDigest(rep *vsa.Report) string {
	h := sha256.New()
	hashSites(h, "sources", rep.Sources)
	hashSites(h, "sinks", rep.Sinks)
	hashSites(h, "externals", rep.Externals)
	fmt.Fprintf(h, "imprecise=%v iterations=%d insts=%d tainted=%d\n",
		rep.Imprecise, rep.Iterations, rep.Insts, rep.TaintedIvs)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// siteTableDigest hashes the correctness-site table an image built by
// patch.NewImage installs: each instruction address with its site id, read
// back from a machine loaded over the image.
func siteTableDigest(t *testing.T, img *machine.Image) string {
	t.Helper()
	m, err := machine.NewFromImage(img, &bytes.Buffer{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := m.InstallSites()
	h := sha256.New()
	fmt.Fprintf(h, "sites %d\n", n)
	for _, in := range m.Insts() {
		if id, ok := m.CorrectnessSite(in.Addr); ok {
			fmt.Fprintf(h, "%#x %d\n", in.Addr, id)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// analysisDigests computes every line of analysisDigestFile.
func analysisDigests(t *testing.T) []string {
	var lines []string
	for _, tg := range oracle.AllTargets() {
		prog, err := tg.Build()
		if err != nil {
			t.Fatalf("%s: %v", tg.Name, err)
		}
		rep, err := vsa.Analyze(prog, 0)
		if err != nil {
			t.Fatalf("%s: %v", tg.Name, err)
		}
		img, err := patch.NewImage(prog)
		if err != nil {
			t.Fatalf("%s: %v", tg.Name, err)
		}
		lines = append(lines, fmt.Sprintf("%s %s %s", reportDigest(rep), siteTableDigest(t, img), tg.Name))
	}
	return lines
}

// TestAnalysisDigest pins the §4.2 analysis of every oracle target: the VSA
// report (sources, sinks with their reasons, externals, imprecision, tainted
// intervals, fixpoint iterations) and the correctness-site table of the
// image patch.NewImage builds. A change to the analysis or to the image
// build must leave every line in place; the test prints each mismatch, and
// every computed line when the file is missing.
func TestAnalysisDigest(t *testing.T) {
	got := analysisDigests(t)
	f, err := os.Open(filepath.FromSlash(analysisDigestFile))
	if err != nil {
		t.Fatalf("%v; computed digests:\n%s", err, strings.Join(got, "\n"))
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d digests, computed %d:\n%s", analysisDigestFile, len(want), len(got), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest mismatch:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
