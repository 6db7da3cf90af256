package jxta

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// liveSorted is the from-scratch answer to a whole-kind query: every live
// entry of kind, canonically sorted.
func liveSorted(c *Cache, kind AdvKind, now time.Time) []Advertisement {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Advertisement
	for _, a := range c.byID {
		if a.Kind == kind && a.Expires.After(now) {
			out = append(out, a)
		}
	}
	SortAdvertisements(out)
	return out
}

// TestMemoPatchMatchesRebuild drives a cache through a seeded random mix of
// new publishes, same-key renewals (with and without attribute changes),
// renames, removals, expiry, sweeps, limit evictions and clears. After every
// step both whole-kind read paths — Query's copy and View's in-place memo —
// must equal a from-scratch sort of the live entries, and Stamp must keep
// its contract: it never decreases, every stored publish advances it, and
// two equal stamps mean identical live sets.
func TestMemoPatchMatchesRebuild(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			now, cur := clockAt(base)
			c := NewCache(16, now)
			ids := make([]ID, 24)
			for i := range ids {
				ids[i] = NewID("memo", fmt.Sprint(i))
			}
			kinds := []AdvKind{AdvPeer, AdvPipe}
			adv := func(i int, name string) Advertisement {
				return Advertisement{
					Kind:    kinds[i%2],
					ID:      ids[i],
					Name:    name,
					Addr:    fmt.Sprintf("n%d/xfer", i),
					Expires: cur.Add(time.Duration(1+rng.Intn(120)) * time.Second),
					Attrs:   []Attr{{AttrCPUScore, fmt.Sprint(rng.Intn(4))}},
				}
			}
			nameOf := func(i int) string { return fmt.Sprintf("peer-%02d", i) }
			lastStamp := uint64(0)
			seen := map[uint64][2][]Advertisement{}
			patched := 0
			for step := 0; step < 3000; step++ {
				i := rng.Intn(len(ids))
				cached, present := c.Lookup(ids[i])
				var before *kindMemo
				if present {
					before = c.memo[cached.Kind]
				}
				renewal := false
				stored := false
				switch op := rng.Intn(100); {
				case op < 30: // publish (new, or a renewal of a present ID)
					a := adv(i, nameOf(i))
					if present {
						a.Attrs = cached.Attrs
						renewal = true
					}
					c.Publish(a)
					stored = true
				case op < 50: // renewal with changed attributes
					if !present {
						continue
					}
					a := cached.WithAttr(AttrPieces, fmt.Sprint(rng.Intn(1000)))
					a.Expires = cur.Add(time.Duration(1+rng.Intn(120)) * time.Second)
					c.Publish(a)
					renewal, stored = true, true
				case op < 58: // rename: same ID, new canonical position
					a := adv(i, fmt.Sprintf("zz-%02d-%d", i, rng.Intn(3)))
					c.Publish(a)
					stored = true
				case op < 68:
					c.Remove(ids[i])
				case op < 85: // time passes: entries expire lazily
					*cur = cur.Add(time.Duration(rng.Intn(20)) * time.Second)
				case op < 95:
					c.Sweep(*cur)
				case op < 97:
					c.Clear()
				default: // a publish that is already expired is ignored
					a := adv(i, nameOf(i))
					a.Expires = *cur
					c.Publish(a)
				}
				if renewal && before != nil && c.memo[cached.Kind] == before && before.version == c.version {
					patched++
				}

				var live [2][]Advertisement
				for k, kind := range kinds {
					want := liveSorted(c, kind, *cur)
					live[k] = want
					if got := c.Query(kind, ""); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: Query(%v) =\n%v\nwant\n%v", step, kind, got, want)
					}
					var viewed []Advertisement
					c.View(kind, func(advs []Advertisement) {
						viewed = append(viewed, advs...)
					})
					if !reflect.DeepEqual(viewed, want) {
						t.Fatalf("step %d: View(%v) =\n%v\nwant\n%v", step, kind, viewed, want)
					}
				}
				// Stamp settles expiry, so it runs after the reads: a memo
				// left valid past an entry's expiry must show in them.
				stamp := c.Stamp()
				if stamp < lastStamp {
					t.Fatalf("step %d: stamp went back from %d to %d", step, lastStamp, stamp)
				}
				if stored && stamp == lastStamp {
					t.Fatalf("step %d: a stored publish left the stamp at %d", step, stamp)
				}
				lastStamp = stamp

				if prev, ok := seen[stamp]; ok && !reflect.DeepEqual(prev, live) {
					t.Fatalf("step %d: stamp %d names two different live sets", step, stamp)
				}
				seen[stamp] = live
			}
			if patched == 0 {
				t.Fatal("no renewal took the in-place memo patch")
			}
		})
	}
}
