package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/tomography"
	"concilium/internal/topology"
)

// Lineage digests: every deterministic outcome of a scripted traffic
// run — each DeliveryReport and BulkReport field, error texts, the
// system counters, the full probe archive, and every member's verdict
// window — folded into one FNV-64a value per scenario. The golden
// values below were computed on the pointer-per-node protocol plane
// that preceded CompactSystem, in a build where both planes produced
// them, so a drift in any of these outcomes fails here even though the
// older plane is gone.

// lineageGolden maps scenario name to its pinned digest.
var lineageGolden = map[string]uint64{
	"bulk/seed1":                      0x82d4001ff05b906a,
	"bulk/seed1-lossy":                0xff4c41c204770c2d,
	"bulk/seed42":                     0xa9af82a1938c0e2c,
	"bulk/seed42-lossy":               0x61b411762bdacd60,
	"bulk/seed7":                      0xca09adf8ae55bdcf,
	"bulk/seed7-lossy":                0x4645509390b07b14,
	"churn/every-route-shape":         0x522b80fc3865507,
	"churn/mid-chain-steward-departs": 0x7049d40979e686fc,
	"churn/next-hop-departs":          0x24b1a02580980c46,
	"churn/steward-departs":           0xdd391b06f22c4256,
	"signed/seed7":                    0x4257f515fab4fba0,
	"traffic/seed1-n256":              0x4adc467513563719,
	"traffic/seed1-n256-churn":        0xf21dbbd2b73d92c7,
	"traffic/seed1-n48":               0xefca91b947772f26,
	"traffic/seed1-n48-churn":         0x9cc6ce3f9eec3b82,
	"traffic/seed42-n256":             0x2e5da52264c9b352,
	"traffic/seed42-n256-churn":       0x132dc861b157e4f2,
	"traffic/seed42-n48":              0xbeed16155bb67a55,
	"traffic/seed42-n48-churn":        0xafc05abffca4c791,
	"traffic/seed7-n256":              0x49c865a5a1c23b46,
	"traffic/seed7-n256-churn":        0x4b0f8ef4b3b3f97d,
	"traffic/seed7-n48":               0x2a082ab0f59c34a0,
	"traffic/seed7-n48-churn":         0x949785f43a184bc,
}

// requireLineage fails the test unless the digest matches the pinned
// value for the scenario.
func requireLineage(t *testing.T, scenario string, got uint64) {
	t.Helper()
	want, ok := lineageGolden[scenario]
	if !ok {
		t.Fatalf("no golden lineage digest for %q (got %#x)", scenario, got)
	}
	if got != want {
		t.Fatalf("lineage digest for %q = %#x, want %#x", scenario, got, want)
	}
}

type lineage struct {
	h   hash.Hash64
	buf []byte
}

func newLineage() *lineage { return &lineage{h: fnv.New64a()} }

func (l *lineage) write() {
	l.h.Write(l.buf)
	l.buf = l.buf[:0]
}

func (l *lineage) u64(v uint64) {
	l.buf = binary.BigEndian.AppendUint64(l.buf, v)
	l.write()
}

func (l *lineage) f64(v float64) { l.u64(math.Float64bits(v)) }

func (l *lineage) flag(b bool) {
	if b {
		l.u64(1)
	} else {
		l.u64(0)
	}
}

func (l *lineage) id(x id.ID) {
	l.buf = append(l.buf, x[:]...)
	l.write()
}

func (l *lineage) bytes(b []byte) {
	l.u64(uint64(len(b)))
	l.buf = append(l.buf, b...)
	l.write()
}

func (l *lineage) verdicts(vs []Verdict) {
	l.u64(uint64(len(vs)))
	for _, v := range vs {
		l.id(v.Judged)
		l.u64(uint64(v.At))
		l.f64(v.Blame)
		l.flag(v.Guilty)
	}
}

// report folds one delivery report, its verdicts and its signed chain.
func (l *lineage) report(rep *DeliveryReport) {
	l.u64(rep.MsgID)
	l.u64(uint64(len(rep.Route)))
	for _, x := range rep.Route {
		l.id(x)
	}
	l.flag(rep.Delivered)
	l.flag(rep.AckReceived)
	l.u64(uint64(rep.Kind))
	l.id(rep.DroppedBy)
	l.u64(uint64(rep.BrokenLink))
	l.flag(rep.ChainUnavailable)
	l.verdicts(rep.Verdicts)
	l.id(rep.Culprit)
	l.flag(rep.NetworkBlamed)
	l.flag(rep.Chain != nil)
	if rep.Chain == nil {
		return
	}
	l.u64(uint64(len(rep.Chain.Links)))
	for i := range rep.Chain.Links {
		a := &rep.Chain.Links[i]
		l.id(a.Accuser)
		l.id(a.Accused)
		l.u64(a.MsgID)
		l.u64(uint64(a.At))
		l.f64(a.Blame)
		l.u64(uint64(len(a.Path)))
		for _, link := range a.Path {
			l.u64(uint64(link))
		}
		l.bytes(a.Signature)
	}
}

// bulk folds one batched-acknowledgment report.
func (l *lineage) bulk(rep *BulkReport) {
	l.u64(uint64(len(rep.Route)))
	for _, x := range rep.Route {
		l.id(x)
	}
	l.u64(uint64(rep.Sent))
	l.u64(uint64(rep.Delivered))
	l.u64(uint64(rep.Cleared))
	l.u64(uint64(len(rep.Missing)))
	for _, m := range rep.Missing {
		l.u64(m)
	}
	l.verdicts(rep.Verdicts)
	l.u64(uint64(rep.AckDigests))
}

// err folds an operation's error text (empty for success).
func (l *lineage) err(err error) {
	if err == nil {
		l.bytes(nil)
		return
	}
	l.bytes([]byte(err.Error()))
}

func (l *lineage) counters(c SystemCounters) {
	for _, v := range []uint64{
		c.ArchiveRecordErrors, c.ProbeRescheduleErrors, c.ProbesLost,
		c.ProbesSuppressed, c.GhostProbesStopped, c.ChurnDrops, c.ChainsUnavailable,
	} {
		l.u64(v)
	}
}

// archive folds every record of every link, in link then time order.
func (l *lineage) archive(a *tomography.Archive, g *topology.Graph, now netsim.Time) {
	l.u64(uint64(a.Size()))
	for link := 0; link < g.NumLinks(); link++ {
		recs := a.Window(topology.LinkID(link), math.MinInt64, now)
		l.u64(uint64(len(recs)))
		for _, r := range recs {
			l.id(r.Prober)
			l.u64(uint64(r.At))
			l.flag(r.Up)
		}
	}
}

// window folds each member's verdict window, oldest verdict first.
func (l *lineage) window(members []id.ID, recent func(id.ID) []Verdict) {
	l.u64(uint64(len(members)))
	for _, x := range members {
		l.id(x)
		l.verdicts(recent(x))
	}
}

func (l *lineage) sum() uint64 { return l.h.Sum64() }
