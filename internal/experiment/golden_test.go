package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

type quickRun struct {
	tbl  *Table
	text string
}

// quickRuns memoizes quickTable. No test in this package runs in parallel,
// so the map needs no lock.
var quickRuns = map[string]quickRun{}

// quickTable runs experiment id at Quick, seed 1, telemetry off, and
// returns its table and text render, once per test binary, so tests that
// check the same table share one run.
func quickTable(t *testing.T, id string) (*Table, string) {
	t.Helper()
	if r, ok := quickRuns[id]; ok {
		return r.tbl, r.text
	}
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("%s missing", id)
	}
	tbl, err := e.Run(NewRunContext(Quick, 1))
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatalf("%s render: %v", id, err)
	}
	quickRuns[id] = quickRun{tbl, buf.String()}
	return tbl, buf.String()
}

// quickTableSHA256 holds the SHA-256 of every registered experiment's
// quick table at seed 1, telemetry off, as Table.Render prints it. A
// change that moves a cell on purpose re-pins the tables it moves.
var quickTableSHA256 = map[string]string{
	"E1":  "8c9e7010cb86669934294ae4aece268ce0c6b4dfc08fb3b798abd4405de5d482",
	"E2":  "5d453ed902d0b757686951f63b9c507bf72fc03b66e6937b36dcf0913d88d3b2",
	"E3":  "f654d91c716f519dab7f01cef6febe63df19c275a1581c4af8745400550d7b7f",
	"E4":  "1ff95dd84a7e0daa1e5d39e0a24beb0c18345d3a63415145828ac20475a208d2",
	"E5":  "48c733a7ee9cebf1d5426d52b16a56bd4ec649f5b1677bc1524842afc6c39445",
	"E6":  "bae8ac9854ea87d4a19e0618cacfd07b4e8fc949180fe03b81eddbf085462ea6",
	"E7":  "b6569256d5c0424d8927d2175ea944502dae2d2459fcdf8a157f18bdbf29079a",
	"E8":  "9c2575462411e358db3d016c27322ff79fabd2682c6b33d2b1b5287c6b67d4b8",
	"E9":  "7b544ca5b6a444754399eb7268ae79278a6a22cf0e406d970831265c2861b63a",
	"E10": "8b63ff63d089749b91581cd6fdbaa570afad36304f5f467f059c00c2bb8f6e88",
	"E11": "56e9517fe60c525834afcb0ada8f92b8bde4688fd07a0f879fc2ecd5f4331064",
	"E12": "0d6530961f149661b1917a3271d6f3d684b18d9982a441af34bb68e843378252",
	"E13": "ff652d79514bb23eef9df60857414076e4d7b1dd90faeee3447bc8061b789384",
	"E14": "87fad23b98c784391e9bfc5217137f37d12521b4ed24743b60de12559b48fcf8",
	"E15": "9c302066b091820998e9ec028270f4d0420a4d936e88ac75e31b38a8f6663792",
}

// TestQuickTablesGolden renders every registered experiment at Quick, seed
// 1, and compares each table's SHA-256 to its pin, so a change that should
// move no cell can show it moved none. It is skipped in short mode, under
// the race detector (where the renders take minutes) and off amd64: the Go
// spec lets other architectures fuse x*y+z into one rounding, which can
// move a printed digit.
func TestQuickTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("quick renders are too slow under the race detector")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("pins are recorded on amd64, where the compiler fuses no multiply-add")
	}
	all := All()
	if len(all) != len(quickTableSHA256) {
		t.Errorf("%d experiments registered, %d pinned", len(all), len(quickTableSHA256))
	}
	for _, e := range all {
		_, text := quickTable(t, e.ID)
		sum := sha256.Sum256([]byte(text))
		got := hex.EncodeToString(sum[:])
		if want := quickTableSHA256[e.ID]; got != want {
			t.Errorf("%s quick table at seed 1 has SHA-256 %s, pinned %s:\n%s", e.ID, got, want, text)
		}
	}
}
