package discovery

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/sim"
	"github.com/bftcup/bftcup/internal/wire"
)

// discNode is a reactor running only discovery.
type discNode struct {
	mod *Module
}

func (n *discNode) Init(ctx sim.Context) { n.mod.Start(ctx) }
func (n *discNode) Receive(ctx sim.Context, from model.ID, payload []byte) {
	n.mod.Handle(ctx, from, payload)
}
func (n *discNode) Timer(ctx sim.Context, tag uint64) { n.mod.HandleTimer(ctx, tag) }

func buildNetwork(t *testing.T, g *graph.Digraph, netmod sim.NetworkModel, silent model.IDSet, delta bool) (map[model.ID]*discNode, *sim.Engine) {
	t.Helper()
	ids := g.Nodes()
	signers, reg, err := cryptox.GenerateKeys(1, ids)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(netmod, 42)
	nodes := make(map[model.ID]*discNode, len(ids))
	for _, id := range ids {
		if silent.Has(id) {
			engine.Crash(id)
		}
		cfg := DefaultConfig()
		cfg.Delta = delta
		rec := NewSignedPD(signers[id], g.OutSet(id).Clone())
		n := &discNode{mod: New(rec, reg, cfg, nil)}
		nodes[id] = n
		if err := engine.AddProcess(id, n); err != nil {
			t.Fatal(err)
		}
	}
	return nodes, engine
}

// Theorem 2 on Fig 1b: every correct process eventually discovers all correct
// sink members and receives their PDs.
func TestTheorem2Fig1b(t *testing.T) {
	fig := graph.Fig1b()
	for _, delta := range []bool{false, true} {
		nodes, engine := buildNetwork(t, fig.G, sim.Synchronous{Delta: 5 * sim.Millisecond}, fig.Byz, delta)
		engine.Run(2 * sim.Second)
		for id, n := range nodes {
			if fig.Byz.Has(id) {
				continue
			}
			v := n.mod.View()
			for _, s := range fig.ExpectedSink.Sorted() {
				if !v.Known.Has(s) {
					t.Fatalf("delta=%v: %v never discovered sink member %v", delta, id, s)
				}
				if _, ok := v.PD[s]; !ok {
					t.Fatalf("delta=%v: %v never received PD of sink member %v", delta, id, s)
				}
			}
		}
	}
}

// On Fig 1a with Byzantine 4 silent, the two knowledge islands can never
// learn of each other (the caption's impossibility narrative).
func TestFig1aIslandsStayIsolated(t *testing.T) {
	fig := graph.Fig1a()
	nodes, engine := buildNetwork(t, fig.G, sim.Synchronous{Delta: 5 * sim.Millisecond}, fig.Byz, false)
	engine.Run(2 * sim.Second)
	left := model.NewIDSet(1, 2, 3)
	right := model.NewIDSet(5, 6, 7, 8)
	for id := range left {
		v := nodes[id].mod.View()
		if inter := v.Known.Intersect(right); inter.Len() != 0 {
			t.Fatalf("%v learned about %v across the silent bridge", id, inter)
		}
	}
	for id := range right {
		v := nodes[id].mod.View()
		if inter := v.Known.Intersect(left); inter.Len() != 0 {
			t.Fatalf("%v learned about %v across the silent bridge", id, inter)
		}
	}
}

// Forged records must be dropped: a Byzantine process cannot fabricate the PD
// of a correct process.
func TestForgedRecordRejected(t *testing.T) {
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewSignedPD(signers[1], model.NewIDSet(2))
	mod := New(rec, reg, DefaultConfig(), nil)

	// A validly signed record from 3 relayed by anyone is accepted.
	good := NewSignedPD(signers[3], model.NewIDSet(1))
	// A forged record claiming to be from 2 but signed by 3's key is not.
	forged := SignedPD{Owner: 2, PD: model.NewIDSet(1), Sig: signers[3].Sign(Canonical(2, model.NewIDSet(1)))}
	// A tampered record (PD altered after signing) is not.
	tampered := NewSignedPD(signers[3], model.NewIDSet(1))
	tampered.PD = model.NewIDSet(1, 2)

	w := wire.NewWriter()
	w.Byte(wire.KindSetPDs)
	w.Uvarint(3)
	good.marshal(w)
	forged.marshal(w)
	tampered.marshal(w)
	mod.receiveRecords(w.Bytes())

	v := mod.View()
	if _, ok := v.PD[3]; !ok {
		t.Fatal("valid record rejected")
	}
	if _, ok := v.PD[2]; ok {
		t.Fatal("forged record accepted")
	}
	if got := v.PD[3]; !got.Equal(model.NewIDSet(1)) {
		t.Fatalf("record content wrong: %v", got)
	}
}

// First verified record wins for an equivocating owner.
func TestEquivocationKeepsFirst(t *testing.T) {
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	mod := New(NewSignedPD(signers[1], model.NewIDSet(2)), reg, DefaultConfig(), nil)
	recA := NewSignedPD(signers[2], model.NewIDSet(1))
	recB := NewSignedPD(signers[2], model.NewIDSet())
	for _, rec := range []SignedPD{recA, recB} {
		w := wire.NewWriter()
		w.Byte(wire.KindSetPDs)
		w.Uvarint(1)
		rec.marshal(w)
		mod.receiveRecords(w.Bytes())
	}
	if got := mod.View().PD[2]; !got.Equal(model.NewIDSet(1)) {
		t.Fatalf("expected first record to win, got %v", got)
	}
}

func TestOnUpdateFires(t *testing.T) {
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	updates := 0
	mod := New(NewSignedPD(signers[1], model.NewIDSet(2)), reg, DefaultConfig(), func() { updates++ })
	w := wire.NewWriter()
	w.Byte(wire.KindSetPDs)
	w.Uvarint(1)
	NewSignedPD(signers[2], model.NewIDSet(1)).marshal(w)
	mod.receiveRecords(w.Bytes())
	if updates != 1 {
		t.Fatalf("updates = %d, want 1", updates)
	}
	// Re-delivery of the same record is a no-op.
	mod.receiveRecords(w.Bytes())
	if updates != 1 {
		t.Fatalf("duplicate delivery fired onUpdate")
	}
}

func TestMalformedPayloadIgnored(t *testing.T) {
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1})
	if err != nil {
		t.Fatal(err)
	}
	mod := New(NewSignedPD(signers[1], model.NewIDSet()), reg, DefaultConfig(), nil)
	mod.receiveRecords([]byte{wire.KindSetPDs, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	mod.receiveRecords([]byte{wire.KindSetPDs})
	if len(mod.View().PD) != 1 {
		t.Fatal("malformed payload changed state")
	}
}

// Delta gossip must converge to the same knowledge with fewer bytes.
func TestDeltaGossipConvergesCheaper(t *testing.T) {
	fig := graph.Fig1b()
	run := func(delta bool) (int64, map[model.ID]*discNode) {
		nodes, engine := buildNetwork(t, fig.G, sim.Synchronous{Delta: 5 * sim.Millisecond}, fig.Byz, delta)
		engine.Run(2 * sim.Second)
		return engine.Metrics().Bytes, nodes
	}
	fullBytes, fullNodes := run(false)
	deltaBytes, deltaNodes := run(true)
	for id, n := range deltaNodes {
		if fig.Byz.Has(id) {
			continue
		}
		if !n.mod.View().Known.Equal(fullNodes[id].mod.View().Known) {
			t.Fatalf("delta and full gossip disagree on S_known for %v", id)
		}
	}
	if deltaBytes >= fullBytes {
		t.Fatalf("delta gossip should use fewer bytes: delta=%d full=%d", deltaBytes, fullBytes)
	}
}

// TestRecordsReturnsCopy is the regression test for the internal-map leak:
// Records() must hand back a snapshot the caller owns, so deleting or
// overwriting entries cannot corrupt the module's verified-record store.
func TestRecordsReturnsCopy(t *testing.T) {
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	mod := New(NewSignedPD(signers[1], model.NewIDSet(2)), reg, DefaultConfig(), nil)
	other := NewSignedPD(signers[2], model.NewIDSet(1))
	w := wire.NewWriter()
	w.Byte(wire.KindSetPDs)
	w.Uvarint(1)
	other.marshal(w)
	mod.receiveRecords(w.Bytes())

	snap := mod.Records()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d records, want 2", len(snap))
	}
	delete(snap, 2)
	snap[1] = SignedPD{Owner: 1}
	if again := mod.Records(); len(again) != 2 || again[2].Owner != 2 || len(again[1].Sig) == 0 {
		t.Fatal("mutating the Records() snapshot corrupted module state")
	}
	if got := mod.View().PD[2]; !got.Equal(model.NewIDSet(1)) {
		t.Fatalf("view PD(2) = %v after snapshot mutation, want {1}", got)
	}
}

// captureCtx is an rt.Context that records the last payload sent.
type captureCtx struct {
	id   model.ID
	sent []byte
}

func (c *captureCtx) ID() model.ID              { return c.id }
func (c *captureCtx) Now() rt.Time              { return 0 }
func (c *captureCtx) Send(_ model.ID, p []byte) { c.sent = append(c.sent[:0], p...) }
func (c *captureCtx) SetTimer(rt.Time, uint64)  {}
func (c *captureCtx) Rand() *rand.Rand          { return rand.New(rand.NewSource(1)) }

// ownEncoding returns the full-set SETPDS the module answers a GETPDS with.
func ownEncoding(m *Module) []byte {
	ctx := &captureCtx{id: m.self}
	m.Handle(ctx, 99, []byte{wire.KindGetPDs})
	return ctx.sent
}

func encodeRecs(recs ...SignedPD) []byte { return EncodeSetPDs(recs) }

// assertTwins fails unless both modules hold identical records and views.
func assertTwins(t *testing.T, step int, fast, slow *Module, fastUpd, slowUpd int) {
	t.Helper()
	if !reflect.DeepEqual(fast.Records(), slow.Records()) {
		t.Fatalf("step %d: records diverge: fast=%v slow=%v", step, fast, slow)
	}
	fv, sv := fast.View(), slow.View()
	if !fv.Known.Equal(sv.Known) || !reflect.DeepEqual(fv.PD, sv.PD) || fv.Rev() != sv.Rev() {
		t.Fatalf("step %d: views diverge: fast=%v rev %d, slow=%v rev %d", step, fast, fv.Rev(), slow, sv.Rev())
	}
	if fastUpd != slowUpd {
		t.Fatalf("step %d: onUpdate fired %d times on the fast path, %d on the parse-only merge", step, fastUpd, slowUpd)
	}
}

// TestFastPathMatchesParseOnlyMerge feeds one random SETPDS sequence to two
// twin modules — one through Handle (with the self-encoding fast path), one
// through the parse-only merge — and requires identical state after every
// payload. The sequence mixes the receiver's own encoding, strict subsets
// and supersets of its records, forged and equivocating records, truncated
// payloads and over-long counts.
func TestFastPathMatchesParseOnlyMerge(t *testing.T) {
	ids := []model.ID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	signers, reg, err := cryptox.GenerateKeys(3, ids)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	randPD := func() model.IDSet {
		pd := model.NewIDSet()
		for _, id := range ids {
			if rng.Intn(3) == 0 {
				pd.Add(id)
			}
		}
		return pd
	}
	// Per owner, a first and an equivocating second record, plus forgeries:
	// one signed with the wrong key, one with a flipped signature byte.
	var pool []SignedPD
	for _, id := range ids[1:] {
		pool = append(pool, NewSignedPD(signers[id], randPD()), NewSignedPD(signers[id], randPD()))
		wrongKey := signers[ids[(int(id)%len(ids))]]
		pd := randPD()
		pool = append(pool, SignedPD{Owner: id, PD: pd, Sig: wrongKey.Sign(Canonical(id, pd))})
		flipped := NewSignedPD(signers[id], randPD())
		flipped.Sig = append([]byte(nil), flipped.Sig...)
		flipped.Sig[rng.Intn(len(flipped.Sig))] ^= 0x40
		pool = append(pool, flipped)
	}

	own := NewSignedPD(signers[1], model.NewIDSet(2, 3))
	fastUpd, slowUpd := 0, 0
	fast := New(own, reg, DefaultConfig(), func() { fastUpd++ })
	slow := New(own, reg, DefaultConfig(), func() { slowUpd++ })
	ctx := &captureCtx{id: 1}

	held := func() []SignedPD { return slow.AppendOtherRecords([]SignedPD{own}) }
	kinds := map[string]int{}
	for step := 0; step < 600; step++ {
		var payload []byte
		switch rng.Intn(7) {
		case 0: // the receiver's own encoding (the converged steady state)
			kinds["own"]++
			payload = ownEncoding(fast)
			if !bytes.Equal(payload, ownEncoding(slow)) {
				t.Fatalf("step %d: twins encode their records differently", step)
			}
		case 1: // the same bytes from a peer, whether or not a GETPDS has
			// rebuilt the receiver's cache since its last new record
			kinds["own"]++
			payload = encodeRecs(held()...)
		case 2: // a strict subset of the held records, in owner order
			kinds["subset"]++
			var sub []SignedPD
			for _, rec := range held() {
				if rng.Intn(2) == 0 {
					sub = append(sub, rec)
				}
			}
			payload = encodeRecs(sub...)
		case 3: // a superset: every held record plus pool records
			kinds["superset"]++
			recs := held()
			for j := rng.Intn(3) + 1; j > 0; j-- {
				recs = append(recs, pool[rng.Intn(len(pool))])
			}
			sort.SliceStable(recs, func(a, b int) bool { return recs[a].Owner < recs[b].Owner })
			payload = encodeRecs(recs...)
		case 4: // a random mix: forged, equivocating and valid, any order
			kinds["mix"]++
			var recs []SignedPD
			for j := rng.Intn(5); j >= 0; j-- {
				recs = append(recs, pool[rng.Intn(len(pool))])
			}
			payload = encodeRecs(recs...)
		case 5: // truncated: the own encoding or a mix, cut short
			kinds["truncated"]++
			payload = encodeRecs(append(held(), pool[rng.Intn(len(pool))])...)
			if rng.Intn(2) == 0 {
				payload = ownEncoding(fast)
			}
			payload = payload[:1+rng.Intn(len(payload)-1)]
		case 6: // a count over 4096, followed by valid records
			kinds["overcount"]++
			w := wire.NewWriter()
			w.Byte(wire.KindSetPDs)
			w.Uvarint(4097)
			pool[rng.Intn(len(pool))].marshal(w)
			payload = w.Bytes()
		}
		if fast.isOwnFullSet(payload) {
			kinds["fast"]++
		}
		in := append([]byte(nil), payload...)
		if !fast.Handle(ctx, 99, payload) {
			t.Fatalf("step %d: SETPDS not recognised", step)
		}
		slow.mergeRecords(in)
		assertTwins(t, step, fast, slow, fastUpd, slowUpd)
	}
	if len(fast.Records()) < 3 || fastUpd == 0 {
		t.Fatalf("sequence too tame: %d records, %d updates", len(fast.Records()), fastUpd)
	}
	for _, k := range []string{"own", "fast", "subset", "superset", "mix", "truncated", "overcount"} {
		if kinds[k] == 0 {
			t.Fatalf("sequence never produced a %s payload: %v", k, kinds)
		}
	}
}

// A payload the same length as the receiver's own encoding but differing in
// one signature byte misses the fast path and is parsed — harmlessly, since
// every owner in it is already held.
func TestFastPathFlippedSignatureParses(t *testing.T) {
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	updates := 0
	mod := New(NewSignedPD(signers[1], model.NewIDSet(2)), reg, DefaultConfig(), func() { updates++ })
	mod.receiveRecords(encodeRecs(NewSignedPD(signers[2], model.NewIDSet(3)), NewSignedPD(signers[3], model.NewIDSet(1))))
	own := ownEncoding(mod)
	if !mod.isOwnFullSet(own) {
		t.Fatal("own encoding misses the fast path")
	}
	flipped := append([]byte(nil), own...)
	flipped[len(flipped)-1] ^= 0x01 // last byte of the last record's signature
	if len(flipped) != len(own) || mod.isOwnFullSet(flipped) {
		t.Fatal("a payload with a flipped signature byte takes the fast path")
	}
	rev := mod.View().Rev()
	mod.receiveRecords(flipped)
	if mod.View().Rev() != rev || updates != 1 || len(mod.Records()) != 3 {
		t.Fatalf("parsing the flipped payload changed state: rev %d→%d, updates %d", rev, mod.View().Rev(), updates)
	}
}

// The cached encoding is rebuilt after a new record arrives: the new
// encoding hits the fast path and the stale one no longer does. Until the
// next GETPDS rebuilds it nothing is cached, so every payload is parsed —
// the receive path never builds the encoding itself.
func TestFastPathCacheRebuiltAfterNewRecord(t *testing.T) {
	signers, reg, err := cryptox.GenerateKeys(1, []model.ID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	mod := New(NewSignedPD(signers[1], model.NewIDSet(2)), reg, DefaultConfig(), nil)
	if mod.isOwnFullSet(encodeRecs(mod.records[1])) {
		t.Fatal("fast path hit before any encoding was built")
	}
	stale := ownEncoding(mod)
	if !mod.isOwnFullSet(stale) {
		t.Fatal("initial own encoding misses the fast path")
	}
	rec := NewSignedPD(signers[2], model.NewIDSet(3))
	mod.receiveRecords(encodeRecs(rec))
	mod.receiveRecords(encodeRecs(mod.records[1], rec))
	if mod.encoded != nil {
		t.Fatal("the receive path built the full-set encoding")
	}
	fresh := ownEncoding(mod)
	if bytes.Equal(fresh, stale) {
		t.Fatal("own encoding unchanged after a new record")
	}
	if want := encodeRecs(mod.AppendOtherRecords([]SignedPD{mod.records[1]})...); !bytes.Equal(fresh, want) {
		t.Fatal("rebuilt encoding is not the full set in owner order")
	}
	if !mod.isOwnFullSet(fresh) || mod.isOwnFullSet(stale) {
		t.Fatal("fast path still keyed on the stale encoding")
	}
}
