package host_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"espftl/internal/host"
	"espftl/internal/workload"
)

// flushEvery wraps a generator and replaces every nth request with a
// FLUSH, so the digests cover the full-barrier path of the scheduler.
type flushEvery struct {
	workload.Generator
	n, i int
}

func (g *flushEvery) Next() workload.Request {
	g.i++
	if g.i%g.n == 0 {
		return workload.Request{Op: workload.OpFlush}
	}
	return g.Generator.Next()
}

// dispatchDigest runs one scheduler configuration over a read-heavy
// subFTL mix with FLUSH barriers and returns the SHA-256 of its dispatch
// sequence (Seq, Chip, Class per dispatch) followed by the report's
// counters, the FTL stats and the device drain time.
func dispatchDigest(t *testing.T, mode, arbName string, qd, queues int) string {
	t.Helper()
	const n = 1200
	dev, f, fill := newRig(t, "subFTL")
	arb, err := host.NewArbiter(arbName)
	if err != nil {
		t.Fatal(err)
	}
	s, err := host.New(dev, f, host.Config{Queues: queues, Arbiter: arb, TickEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	var h hash.Hash = sha256.New()
	chips := dev.Geometry().Chips()
	var routedReads, flushes int
	s.SetDispatchHook(func(c *host.Command) {
		fmt.Fprintf(h, "%d %d %d\n", c.Seq, c.Chip, c.Class)
		if c.Class == host.ClassRead && c.Chip < chips {
			routedReads++
		}
		if c.Req.Op == workload.OpFlush {
			flushes++
		}
	})
	gen := &flushEvery{Generator: newGen(t, fill, 0.7, uint64(100*qd+queues)), n: 37}
	var rep *host.Report
	switch mode {
	case "closed":
		rep, err = s.RunClosedLoop(gen, n, qd)
	case "open":
		// The arrival rate scales with the nominal depth: 1 is light load,
		// 32 overloads the device so commands queue deeply.
		rep, err = s.RunOpenLoop(gen, n, float64(qd)*2000)
	case "external":
		_, rep = pumpOrdered(t, s, gen, n, qd, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != n {
		t.Fatalf("completed %d of %d", rep.Completed, n)
	}
	// The mix must exercise what the digest pins: chip-routed reads,
	// FLUSH barriers and, at depth, reordering.
	if routedReads == 0 || flushes == 0 {
		t.Fatalf("vacuous mix: %d chip-routed reads, %d flushes", routedReads, flushes)
	}
	if qd > 1 && mode != "open" && rep.OutOfOrder == 0 {
		t.Fatalf("no out-of-order completions at depth %d", qd)
	}
	if qd > 1 && arbName == "read-priority" && mode != "open" && rep.ReadsPromoted == 0 {
		t.Fatalf("read-priority promoted no reads at depth %d", qd)
	}
	fmt.Fprintf(h, "sub=%d disp=%d done=%d bg=%d err=%d rej=%d ooo=%d promo=%d defer=%d\n",
		rep.Submitted, rep.Dispatched, rep.Completed, rep.Background, rep.Errors, rep.Rejected,
		rep.OutOfOrder, rep.ReadsPromoted, rep.BackgroundDeferred)
	fmt.Fprintf(h, "%+v drain=%d\n", f.Stats(), dev.DrainTime())
	return hex.EncodeToString(h.Sum(nil))
}

// TestDispatchDigests pins the scheduler's dispatch decisions: for every
// arbiter × depth × lane count × run mode, the dispatch sequence and the
// report must hash to the recorded digest. Any change to how commands
// are queued, selected or ordered shows up here as a mismatch, so a
// rewrite of the selection data structures must reproduce these exactly.
func TestDispatchDigests(t *testing.T) {
	// A fixed reference: a change that moves a digest changes what the
	// scheduler decides, which must be deliberate, never a side effect.
	want := map[string]string{
		"closed/fifo/qd1/q1":             "1cb1dbe1157026579e4a25d0fa73d8f661a3c46d7f339f70c8d7ce037c8103a3",
		"closed/fifo/qd1/q4":             "5be380ab93cc6062ec58dd8524276d2b1dccf2b3beffd068c549474520e5cf8d",
		"closed/fifo/qd8/q1":             "efa88918db87906eea9ee4e023893bf2ca39c07aa88ba072edba5929839d6954",
		"closed/fifo/qd8/q4":             "979beb7d53f3c00e4e63e19967c0ac86b5fd7a7b19b4c3392c5f43f7e7c285ca",
		"closed/fifo/qd32/q1":            "f43b157ca54db6ee155fe004e77b2f7d0c7091862af293d59347d23a786604b4",
		"closed/fifo/qd32/q4":            "8eca310879c8f59b7a3eb05ac156f3413a6c03b4d8361622b834a5c19a182fee",
		"closed/read-priority/qd1/q1":    "1cb1dbe1157026579e4a25d0fa73d8f661a3c46d7f339f70c8d7ce037c8103a3",
		"closed/read-priority/qd1/q4":    "5be380ab93cc6062ec58dd8524276d2b1dccf2b3beffd068c549474520e5cf8d",
		"closed/read-priority/qd8/q1":    "52ff04f366f1b7746207ddb4703c73c5f702c6df3e5b2eb804f26b7e3138b0be",
		"closed/read-priority/qd8/q4":    "d87c460b625faac1abe74c8ad1fc14778d13e299a8ddc54de89047c0240f5741",
		"closed/read-priority/qd32/q1":   "106c2979ac0c76c8d2ca72e78a0890547168f0b762fe47544dd7c9e5424c383f",
		"closed/read-priority/qd32/q4":   "b8218b48b1012f3f1176aa1e802d7736349bb69827662be3fa9f5f1a120cd33a",
		"open/fifo/qd1/q1":               "c6fb250b39a89167b918f69336cc3e3a162d87d61d7e7f046750cb18caa09a98",
		"open/fifo/qd1/q4":               "94fe79ab5b1a06bc64b83ea00146df71c5e218dc14869c8a6bf787b3bbc24d95",
		"open/fifo/qd8/q1":               "146d2f1852601d8d3ecff0c1f77776ba532a269d6f000f4b3d07dad314f768e5",
		"open/fifo/qd8/q4":               "56359ee2eeb4f3ad07c9a22770a4689cbdb64e37636e8fd99bf2e476ba63927c",
		"open/fifo/qd32/q1":              "8bc0cd4115e4d8579aa636ed1c07fa6389f60324896dd112ae688d1c799ef7ce",
		"open/fifo/qd32/q4":              "2b2d66cc13deb1b1a32339b5cdea56d33e35591e75aa11136d7c79f143f278b4",
		"open/read-priority/qd1/q1":      "95290dbf39122d7eb0007e3fd1ea226d52739fe7664b21f8056e11a649e765a6",
		"open/read-priority/qd1/q4":      "c35e35cb6a6054d6844f10786f12f72e3369a81ead04c48d453806b54fc12288",
		"open/read-priority/qd8/q1":      "f7639de775ec27bdd6a3505948b3fcad3f2792c32c068063cf340f37bd235299",
		"open/read-priority/qd8/q4":      "7e41dfa0890bb469d46105a7cfd4b01d31c2b9f933b94aff699796427914132b",
		"open/read-priority/qd32/q1":     "605f2d14ea52706fd88d53e5ea6689e71ae739c67e97d852708c0c5acc33da49",
		"open/read-priority/qd32/q4":     "ce249b90f8f07cce5283edf47197d25c55d181e6cbcf29593cb4df895a845439",
		"external/fifo/qd1/q1":           "1cb1dbe1157026579e4a25d0fa73d8f661a3c46d7f339f70c8d7ce037c8103a3",
		"external/fifo/qd1/q4":           "5be380ab93cc6062ec58dd8524276d2b1dccf2b3beffd068c549474520e5cf8d",
		"external/fifo/qd8/q1":           "2c69cf4fddc0d769ab36aa7bc94bb81999aa2d58f0ec58a96c48d1d3edcc8328",
		"external/fifo/qd8/q4":           "4f533eac3b43a594704edba44caa13c330bf22e403155de916d7c76348e87da0",
		"external/fifo/qd32/q1":          "e436abfd364a5511bbb527b75f04d8a8abfc89d50dd50127f29661e553d51a68",
		"external/fifo/qd32/q4":          "6a3eaead3f941c563008de008d8b8a381c5223e24ea0275272876ae568e7cc4e",
		"external/read-priority/qd1/q1":  "1cb1dbe1157026579e4a25d0fa73d8f661a3c46d7f339f70c8d7ce037c8103a3",
		"external/read-priority/qd1/q4":  "5be380ab93cc6062ec58dd8524276d2b1dccf2b3beffd068c549474520e5cf8d",
		"external/read-priority/qd8/q1":  "50efb598742bbc97fe38f65959798174bdf59e9122804a9bae2e180a4a47433f",
		"external/read-priority/qd8/q4":  "ffc21aea8313c48469f4185996022790bf17f11c8e6254ade3fad4025c03f3f9",
		"external/read-priority/qd32/q1": "2655299f976a219cb0150e16853e0c67526cef39fd3394beaabbee9526e17667",
		"external/read-priority/qd32/q4": "cac42ea4051f08694c40180dcc51112d0205629e785f17fb210f122c9d5016e4",
	}
	for _, mode := range []string{"closed", "open", "external"} {
		for _, arb := range []string{"fifo", "read-priority"} {
			for _, qd := range []int{1, 8, 32} {
				for _, queues := range []int{1, 4} {
					name := fmt.Sprintf("%s/%s/qd%d/q%d", mode, arb, qd, queues)
					t.Run(name, func(t *testing.T) {
						got := dispatchDigest(t, mode, arb, qd, queues)
						if got != want[name] {
							t.Errorf("digest %s, want %s", got, want[name])
							t.Logf("%q: %q,", name, got)
						}
					})
				}
			}
		}
	}
}
