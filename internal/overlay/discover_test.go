package overlay

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"peerlab/internal/jxta"
	"peerlab/internal/simnet"
	"peerlab/internal/wire"
)

// TestDiscoverMatchesReference pins the memo-encoded Discover reply to the
// reference encoding of the merged directory, at 1, 2, 4 and 8 shards,
// through renewals (with and without attribute changes), lease expiry of
// departed peers and a cold broker restart. Every heartbeat's Discover
// decodes against the client's previous directory; the directory a client
// ends up with must equal the broker's.
func TestDiscoverMatchesReference(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprint("shards", shards), func(t *testing.T) {
			n := simnet.New(int64(40 + shards))
			bp := simnet.DefaultProfile()
			bp.Bandwidth = 50e6
			bhost := n.MustAddNode("broker0", bp)
			// Renewals land in the first seconds of each 20 s round, so
			// with a 70 s TTL every lease lapses ~10 s into a round: no
			// expiry falls between a reply and the check that reads it.
			broker, err := NewBroker(bhost, BrokerConfig{AdvTTL: 70 * time.Second, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			var clients []*Client
			for i := 0; i < 8; i++ {
				host := n.MustAddNode(fmt.Sprintf("sc%02d", i), clientProfile())
				clients = append(clients, NewClient(host, broker.Addr(), ClientConfig{
					CPUScore: float64(1 + i%3),
					Call:     CallPolicy{Degrade: true},
				}))
			}
			checks := 0
			check := func(when string) {
				for _, req := range []discover{
					{Kind: jxta.AdvPeer},
					{Kind: jxta.AdvPeer, Name: "sc03"},
					{Kind: jxta.AdvPipe},
				} {
					e := wire.NewEncoder(0)
					broker.encodeDiscover(e, req)
					want := discoverResult{Advs: broker.Advertisements(req.Kind, req.Name)}.encode()
					if !bytes.Equal(e.Bytes(), want) {
						t.Errorf("%s: Discover%+v reply differs from the reference encoding", when, req)
					}
				}
				got, err := clients[0].Discover()
				if err != nil {
					t.Errorf("%s: Discover: %v", when, err)
					return
				}
				if want := broker.Advertisements(jxta.AdvPeer, ""); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: client directory =\n%v\nwant\n%v", when, got, want)
				}
				checks++
			}
			n.Run(func() {
				for _, c := range clients {
					if err := c.Start(); err != nil {
						t.Errorf("start: %v", err)
					}
				}
				check("boot")
				for round := 1; round <= 12; round++ {
					bhost.Sleep(20 * time.Second)
					if round == 7 {
						broker.Restart()
						check("restart")
					}
					for i, c := range clients {
						if i%4 == 3 && round >= 2 {
							continue // departed: its lease lapses
						}
						if (i+round)%3 == 0 {
							if err := c.ReportPieces([]int{round, i}, []string{"sc00"}); err != nil {
								t.Errorf("ReportPieces: %v", err)
							}
						}
						if err := c.ReportStats(); err != nil {
							t.Errorf("ReportStats: %v", err)
						}
					}
					check(fmt.Sprint("round ", round))
				}
			})
			if checks != 14 {
				t.Fatalf("%d checks ran, want 14", checks)
			}
			if peers := broker.Peers(); len(peers) != 6 {
				t.Fatalf("directory at the end = %v, want the 6 renewing peers", peers)
			}
		})
	}
}

// hintDir builds a canonical directory of n peers whose names start at
// index from, each decoded fresh (so no strings are shared with another
// call's result).
func hintDir(t *testing.T, from, n int) []jxta.Advertisement {
	t.Helper()
	var advs []jxta.Advertisement
	for i := from; i < from+n; i++ {
		a := testAdv(fmt.Sprintf("peer%02d", i))
		a.Expires = time.Unix(1000+int64(i), 0).UTC()
		a = a.WithAttr(jxta.AttrServices, "files,tasks")
		advs = append(advs, a)
	}
	jxta.SortAdvertisements(advs)
	res, err := decodeDiscoverResult(wire.NewDecoder(discoverResult{Advs: advs}.encode()[1:]), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Advs
}

// TestDecodeDiscoverResultHint pins hinted decoding to plain decoding for
// hints that are equal, shorter, longer, shifted (a peer inserted or
// removed), changed (an attribute, the address, the attribute count or
// Expires), out of order, or absent.
func TestDecodeDiscoverResultHint(t *testing.T) {
	dir := hintDir(t, 0, 10)
	payload := discoverResult{Advs: dir}.encode()[1:]
	plain, err := decodeDiscoverResult(wire.NewDecoder(payload), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Advs, dir) {
		t.Fatal("plain decode does not round-trip")
	}
	changed := func(i int, f func(a *jxta.Advertisement)) []jxta.Advertisement {
		h := hintDir(t, 0, 10)
		f(&h[i])
		return h
	}
	reversed := hintDir(t, 0, 10)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	for _, tc := range []struct {
		name string
		hint []jxta.Advertisement
	}{
		{"nil", nil},
		{"equal", hintDir(t, 0, 10)},
		{"shorter", hintDir(t, 0, 5)},
		{"tail only", hintDir(t, 6, 4)},
		{"longer", hintDir(t, 0, 14)},
		{"disjoint", hintDir(t, 20, 5)},
		{"peer inserted since", append(hintDir(t, 0, 3), hintDir(t, 4, 6)...)},
		{"peer removed since", func() []jxta.Advertisement {
			h := hintDir(t, 0, 10)
			extra := testAdv("peer03a")
			return append(h[:4:4], append([]jxta.Advertisement{extra}, h[4:]...)...)
		}()},
		{"attr value", changed(4, func(a *jxta.Advertisement) { *a = a.WithAttr(jxta.AttrCPUScore, "9") })},
		{"attr added", changed(5, func(a *jxta.Advertisement) { *a = a.WithAttr(jxta.AttrPieces, "1,2") })},
		{"attr dropped", changed(6, func(a *jxta.Advertisement) { a.Attrs = a.Attrs[:1] })},
		{"attrs nil", changed(7, func(a *jxta.Advertisement) { a.Attrs = nil })},
		{"addr", changed(8, func(a *jxta.Advertisement) { a.Addr = "elsewhere/xfer" })},
		{"expires", changed(9, func(a *jxta.Advertisement) { a.Expires = a.Expires.Add(time.Hour) })},
		{"out of order", reversed},
	} {
		got, err := decodeDiscoverResult(wire.NewDecoder(payload), tc.hint)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, plain) {
			t.Errorf("%s: hinted decode =\n%v\nwant\n%v", tc.name, got.Advs, plain.Advs)
		}
	}
}

// TestDecodeDiscoverResultEqualHintAllocs pins the heartbeat fast path:
// re-decoding an unchanged directory against the previous one allocates
// only the result slice — every name, address and attribute is reused.
func TestDecodeDiscoverResultEqualHintAllocs(t *testing.T) {
	dir := hintDir(t, 0, 64)
	payload := discoverResult{Advs: dir}.encode()[1:]
	prev := hintDir(t, 0, 64)
	var d wire.Decoder
	allocs := testing.AllocsPerRun(20, func() {
		d = *wire.NewDecoder(payload)
		if _, err := decodeDiscoverResult(&d, prev); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("equal-hint decode of 64 advertisements made %v allocations, want 1", allocs)
	}
	res, _ := decodeDiscoverResult(wire.NewDecoder(payload), prev)
	if &res.Advs[0].Attrs[0] != &prev[0].Attrs[0] {
		t.Fatal("equal attributes were not shared with the hint")
	}
}

// TestDecodeDiscoverResultHostileCount pins the allocation guard: a count
// the remaining input cannot hold fails with ErrCorrupt before anything
// sized by the count is allocated.
func TestDecodeDiscoverResultHostileCount(t *testing.T) {
	e := wire.NewEncoder(0)
	e.Uint64(1 << 40)
	one := discoverResult{Advs: hintDir(t, 0, 1)}.encode()
	payload := append(e.Bytes(), one[2:]...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeDiscoverResult(wire.NewDecoder(payload), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("rejecting a hostile count allocated %d bytes", grew)
	}
}

// FuzzDecodeDiscoverResult: decoding arbitrary input, with and without a
// hint, never panics; both decodes agree; and a successful decode
// re-encodes to a value that decodes back to itself.
func FuzzDecodeDiscoverResult(f *testing.F) {
	dir := func(names ...string) []jxta.Advertisement {
		var advs []jxta.Advertisement
		for i, name := range names {
			a := testAdv(name)
			a.Expires = time.Unix(int64(i)*1000, 0).UTC()
			advs = append(advs, a)
		}
		return advs
	}
	hint := dir("a", "b", "sc1", "sc2")
	f.Add(discoverResult{Advs: dir("a", "b", "sc1", "sc2")}.encode()[1:])
	f.Add(discoverResult{Advs: dir("a", "sc1", "zz")}.encode()[1:])
	f.Add(discoverResult{}.encode()[1:])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		plain, perr := decodeDiscoverResult(wire.NewDecoder(data), nil)
		hinted, herr := decodeDiscoverResult(wire.NewDecoder(data), hint)
		if (perr == nil) != (herr == nil) {
			t.Fatalf("plain err %v, hinted err %v", perr, herr)
		}
		if perr != nil {
			return
		}
		if !reflect.DeepEqual(plain, hinted) {
			t.Fatalf("hinted decode %v differs from plain %v", hinted, plain)
		}
		again, err := decodeDiscoverResult(wire.NewDecoder(plain.encode()[1:]), plain.Advs)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(again, plain) {
			t.Fatalf("decode(encode(m)) = %v, want %v", again, plain)
		}
	})
}
