// Package jxta provides the JXTA-flavored naming and discovery substrate the
// overlay is built on: peer IDs, advertisements, and a TTL'd advertisement
// cache. The paper's platform (JXTA-Overlay) relies on JXTA for peer
// discovery and peer-resource discovery; brokers act as rendezvous points
// that hold and answer advertisement queries.
//
// Wire compatibility with real JXTA (XML documents) is out of scope; the
// semantics — uniquely identified peers publishing expiring, queryable
// advertisements — are what the overlay needs.
package jxta

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"peerlab/internal/wire"
)

// ID is a JXTA-style 128-bit identifier.
type ID [16]byte

// NewID derives a stable ID from a namespace and name (content addressing
// keeps IDs reproducible across runs, which experiment logs rely on).
func NewID(namespace, name string) ID {
	sum := sha256.Sum256([]byte(namespace + "\x00" + name))
	var id ID
	copy(id[:], sum[:16])
	return id
}

// String renders the ID in JXTA's urn style.
func (id ID) String() string {
	return "urn:jxta:uuid-" + hex.EncodeToString(id[:])
}

// IsZero reports whether the ID is unset.
func (id ID) IsZero() bool { return id == ID{} }

// AdvKind distinguishes advertisement types.
type AdvKind byte

// Advertisement kinds.
const (
	AdvPeer AdvKind = iota + 1
	AdvPipe
	AdvModule
)

// String names the kind.
func (k AdvKind) String() string {
	switch k {
	case AdvPeer:
		return "peer"
	case AdvPipe:
		return "pipe"
	case AdvModule:
		return "module"
	default:
		return fmt.Sprintf("advkind(%d)", byte(k))
	}
}

// Advertisement is a published, expiring description of a resource.
// It mirrors JXTA's PeerAdvertisement / PipeAdvertisement / ModuleSpec
// structure flattened into one record.
type Advertisement struct {
	Kind    AdvKind
	ID      ID
	Name    string // peer name, pipe name, or module name
	Addr    string // transport address ("node/service"), empty for modules
	Expires time.Time
	// Attrs carries small typed attributes (CPU score, services list...)
	// as ordered key/value pairs for deterministic encoding.
	Attrs []Attr
}

// Attr is one advertisement attribute.
type Attr struct {
	Key   string
	Value string
}

// Attr returns the value for key, or "".
func (a Advertisement) Attr(key string) string {
	for _, kv := range a.Attrs {
		if kv.Key == key {
			return kv.Value
		}
	}
	return ""
}

// WithAttr returns a copy with the attribute set (replacing an existing key).
func (a Advertisement) WithAttr(key, value string) Advertisement {
	out := a
	out.Attrs = append([]Attr(nil), a.Attrs...)
	for i := range out.Attrs {
		if out.Attrs[i].Key == key {
			out.Attrs[i].Value = value
			return out
		}
	}
	out.Attrs = append(out.Attrs, Attr{key, value})
	return out
}

// Encode appends the advertisement to the encoder.
func (a Advertisement) Encode(e *wire.Encoder) {
	e.Byte(byte(a.Kind))
	e.BytesField(a.ID[:])
	e.String(a.Name)
	e.String(a.Addr)
	e.Time(a.Expires)
	e.Uint64(uint64(len(a.Attrs)))
	for _, kv := range a.Attrs {
		e.String(kv.Key)
		e.String(kv.Value)
	}
}

// MinEncodedLen is the shortest encoding of an advertisement: kind byte, a
// length-prefixed 16-byte ID, two empty strings, a one-byte time and a zero
// attribute count. Decoders of advertisement lists bound a count by it
// before allocating.
const MinEncodedLen = 1 + 1 + len(ID{}) + 1 + 1 + 1 + 1

// DecodeAdvertisement consumes one advertisement from the decoder.
func DecodeAdvertisement(d *wire.Decoder) (Advertisement, error) {
	var r DirDecoder
	return r.Decode(d)
}

// DirDecoder decodes a stream of advertisements in canonical (Name, ID)
// order against prev, a directory in the same order decoded earlier. A
// decoded advertisement whose (Name, ID) appears in prev reuses that
// entry's Name, Addr and Attrs wherever its bytes are equal, so
// re-downloading an unchanged directory allocates no strings. Reuse never
// changes what is decoded — any prev, or none, yields the same values as
// DecodeAdvertisement — it only decides which allocations are needed. The
// decoded values share strings and Attrs with prev, so both must be treated
// as read-only.
type DirDecoder struct {
	prev []Advertisement
	next int // merge cursor into prev
}

// NewDirDecoder returns a decoder reusing prev (which may be nil).
func NewDirDecoder(prev []Advertisement) *DirDecoder {
	return &DirDecoder{prev: prev}
}

// Decode consumes one advertisement from d.
func (r *DirDecoder) Decode(d *wire.Decoder) (Advertisement, error) {
	var a Advertisement
	a.Kind = AdvKind(d.Byte())
	idb := d.BytesField()
	name := d.BytesField()
	addr := d.BytesField()
	a.Expires = d.Time()
	n := d.Uint64()
	if err := d.Err(); err != nil {
		return Advertisement{}, err
	}
	if len(idb) != len(a.ID) {
		return Advertisement{}, fmt.Errorf("%w: advertisement id of %d bytes", wire.ErrCorrupt, len(idb))
	}
	copy(a.ID[:], idb)
	// Every attribute takes at least two bytes (two length prefixes).
	if n > uint64(d.Remaining()/2) {
		return Advertisement{}, fmt.Errorf("%w: %d attrs exceed remaining input", wire.ErrCorrupt, n)
	}
	var prev Advertisement
	if p := r.match(name, a.ID); p != nil {
		prev = *p
	}
	a.Name = reuse(name, prev.Name)
	a.Addr = reuse(addr, prev.Addr)
	if n == 0 {
		return a, nil
	}
	// same reports that every attribute so far equals prev's: while it
	// holds, a.Attrs stays unallocated and prev.Attrs is the result.
	same := uint64(len(prev.Attrs)) == n
	if !same {
		a.Attrs = make([]Attr, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		k := d.BytesField()
		v := d.BytesField()
		if err := d.Err(); err != nil {
			return Advertisement{}, err
		}
		var pa Attr
		if i < uint64(len(prev.Attrs)) {
			pa = prev.Attrs[i]
		}
		if same {
			if string(k) == pa.Key && string(v) == pa.Value {
				continue
			}
			same = false
			a.Attrs = append(make([]Attr, 0, n), prev.Attrs[:i]...)
		}
		a.Attrs = append(a.Attrs, Attr{reuse(k, pa.Key), reuse(v, pa.Value)})
	}
	if same {
		a.Attrs = prev.Attrs
	}
	return a, nil
}

// match advances the merge cursor to (name, id) and returns prev's entry
// with that key, or nil. Input out of canonical order only costs reuse.
func (r *DirDecoder) match(name []byte, id ID) *Advertisement {
	for r.next < len(r.prev) {
		p := &r.prev[r.next]
		if p.Name > string(name) {
			return nil
		}
		if p.Name == string(name) {
			if c := bytes.Compare(p.ID[:], id[:]); c > 0 {
				return nil
			} else if c == 0 {
				r.next++
				return p
			}
		}
		r.next++
	}
	return nil
}

// reuse returns s when b holds its bytes, and a fresh string otherwise.
func reuse(b []byte, s string) string {
	if string(b) == s {
		return s
	}
	return string(b)
}

// Cache is a thread-safe advertisement store with TTL expiry and bounded
// size (oldest-expiry eviction), as kept by rendezvous peers and local
// discovery services.
type Cache struct {
	mu    sync.Mutex
	now   func() time.Time
	limit int
	byID  map[ID]Advertisement
	// kindLen counts entries per kind; after gcLocked every counted entry
	// is live, so LiveLen answers in O(1).
	kindLen map[AdvKind]int
	// minExpiry is a lower bound on the earliest expiry among entries (zero
	// = unknown, forcing the next gc to scan). While now < minExpiry no
	// entry can be expired, so gcLocked skips its scan — the O(1) fast path
	// every Publish on a static deployment takes. Renewals leave the bound
	// stale-but-valid: the scan it eventually triggers removes nothing and
	// recomputes it.
	minExpiry time.Time
	// version counts mutations (publish, eviction, expiry removal); memo
	// holds the last whole-kind query result per kind, valid while the
	// version matches and no included entry has expired. Selection and
	// discovery read the full peer directory far more often than it changes
	// membership, so the memo turns the common Query("") from an O(n log n)
	// scan-and-sort into a copy of a prebuilt slice, and View into no copy
	// at all. A renewal (re-publish of a present ID under the same kind and
	// name) patches the memo in place rather than discarding it.
	version uint64
	memo    map[AdvKind]*kindMemo
}

// kindMemo is one memoized whole-kind query result.
type kindMemo struct {
	result  []Advertisement
	version uint64
	// validUntil is the earliest expiry among result entries: strictly
	// before it, the live set cannot have changed without a version bump.
	// Zero when result is empty (nothing to expire).
	validUntil time.Time
}

// NewCache returns a cache holding at most limit advertisements (default
// 1024 when limit <= 0); now supplies time and may be nil for wall clock.
func NewCache(limit int, now func() time.Time) *Cache {
	if limit <= 0 {
		limit = 1024
	}
	if now == nil {
		now = time.Now
	}
	return &Cache{now: now, limit: limit, byID: make(map[ID]Advertisement), kindLen: make(map[AdvKind]int, 3)}
}

// Publish inserts or refreshes an advertisement. Already-expired
// advertisements are ignored.
func (c *Cache) Publish(a Advertisement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	if !a.Expires.After(now) {
		return
	}
	c.gcLocked(now)
	old, exists := c.byID[a.ID]
	if !exists && len(c.byID) >= c.limit {
		c.evictOldestLocked()
	}
	patched := exists && c.patchMemoLocked(a, now)
	if exists {
		c.kindLen[old.Kind]--
	}
	c.kindLen[a.Kind]++
	c.byID[a.ID] = a
	c.version++
	if patched {
		c.memo[a.Kind].version = c.version
	}
	if c.minExpiry.IsZero() || a.Expires.Before(c.minExpiry) {
		c.minExpiry = a.Expires
	}
}

// patchMemoLocked applies a renewal to the current memo of a's kind in
// place, and reports whether it did. It applies when the memo holds a's
// (Name, ID) — a current memo is exactly the live set, so that is the entry
// a replaces, under an unchanged kind and canonical position; a publish that
// changes the kind or the name finds nothing and leaves the memo to a
// rebuild. The patched memo equals a rebuild: the same entries with one
// payload replaced, and validUntil only ever moves down (a stale-low bound
// costs one rebuild, never a wrong answer). Caller holds c.mu, has run
// gcLocked(now), and bumps the version afterwards.
func (c *Cache) patchMemoLocked(a Advertisement, now time.Time) bool {
	m := c.memo[a.Kind]
	if !m.fresh(c.version, now) {
		return false
	}
	i, found := slices.BinarySearchFunc(m.result, a, CompareAdvertisements)
	if !found {
		return false
	}
	m.result[i] = a
	if a.Expires.Before(m.validUntil) {
		m.validUntil = a.Expires
	}
	return true
}

// gcLocked removes expired entries — exactly those with Expires <= now,
// whether the minExpiry fast path or the scan runs (while now < minExpiry
// no entry can be expired, by the bound's invariant). Caller holds c.mu.
func (c *Cache) gcLocked(now time.Time) {
	if !c.minExpiry.IsZero() && now.Before(c.minExpiry) {
		return
	}
	var min time.Time
	for id, a := range c.byID {
		if !a.Expires.After(now) {
			delete(c.byID, id)
			c.kindLen[a.Kind]--
			c.version++
			continue
		}
		if min.IsZero() || a.Expires.Before(min) {
			min = a.Expires
		}
	}
	c.minExpiry = min
}

// evictOldestLocked drops the entry closest to expiry. Caller holds c.mu.
func (c *Cache) evictOldestLocked() {
	var victim ID
	var when time.Time
	first := true
	for id, a := range c.byID {
		if first || a.Expires.Before(when) {
			victim, when, first = id, a.Expires, false
		}
	}
	if !first {
		c.kindLen[c.byID[victim].Kind]--
		delete(c.byID, victim)
		c.version++
	}
}

// Lookup returns the advertisement with the given ID, if present and live.
func (c *Cache) Lookup(id ID) (Advertisement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.byID[id]
	if !ok || !a.Expires.After(c.now()) {
		return Advertisement{}, false
	}
	return a, true
}

// Query returns live advertisements of the kind whose Name matches name
// exactly; empty name matches all. Results are sorted by Name then ID for
// determinism. The returned slice is the caller's to keep (whole-kind
// queries copy out of the memo; View reads it without the copy).
func (c *Cache) Query(kind AdvKind, name string) []Advertisement {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	if name == "" {
		m := c.memoLocked(kind, now)
		if len(m.result) == 0 {
			return nil
		}
		out := make([]Advertisement, len(m.result))
		copy(out, m.result)
		return out
	}
	var out []Advertisement
	for _, a := range c.byID {
		if !a.Expires.After(now) {
			continue
		}
		if a.Kind != kind {
			continue
		}
		if a.Name != name {
			continue
		}
		out = append(out, a)
	}
	SortAdvertisements(out)
	return out
}

// View calls fn with the live advertisements of kind in canonical (Name, ID)
// order — exactly what Query(kind, "") returns — without copying them: fn
// reads the cache's memo under the cache lock. fn must not modify the slice
// or keep it past its return, and must not call into this cache (it may
// view other caches). It is the directory's zero-copy read path: discovery
// encodes straight from it.
func (c *Cache) View(kind AdvKind, fn func(advs []Advertisement)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn(c.memoLocked(kind, c.now()).result)
}

// fresh reports whether the memo still answers exactly at version and now.
func (m *kindMemo) fresh(version uint64, now time.Time) bool {
	return m != nil && m.version == version && (m.validUntil.IsZero() || now.Before(m.validUntil))
}

// memoLocked returns the kind's memo, rebuilding it when stale. Caller
// holds c.mu.
func (c *Cache) memoLocked(kind AdvKind, now time.Time) *kindMemo {
	if m := c.memo[kind]; m.fresh(c.version, now) {
		return m
	}
	return c.buildMemoLocked(kind, now)
}

// buildMemoLocked scans and sorts the live entries of kind, recording the
// directory version and the earliest expiry so hits stay exact. Caller
// holds c.mu.
func (c *Cache) buildMemoLocked(kind AdvKind, now time.Time) *kindMemo {
	m := &kindMemo{version: c.version}
	for _, a := range c.byID {
		if a.Kind != kind || !a.Expires.After(now) {
			continue
		}
		m.result = append(m.result, a)
		if m.validUntil.IsZero() || a.Expires.Before(m.validUntil) {
			m.validUntil = a.Expires
		}
	}
	SortAdvertisements(m.result)
	if c.memo == nil {
		c.memo = make(map[AdvKind]*kindMemo, 3)
	}
	c.memo[kind] = m
	return m
}

// SortAdvertisements orders advertisements by Name then ID — the canonical
// directory order. Every query returns it, and sharded directories restore
// it after merging per-shard results, so a multi-shard cache answers
// queries identically to a single one.
func SortAdvertisements(advs []Advertisement) {
	slices.SortFunc(advs, CompareAdvertisements)
}

// CompareAdvertisements is the canonical (Name, ID) directory order as a
// three-way comparison.
func CompareAdvertisements(a, b Advertisement) int {
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	return bytes.Compare(a.ID[:], b.ID[:])
}

// NextExpiry returns the earliest expiry instant among cached
// advertisements, and whether the cache holds any. Lease sweepers use it to
// schedule the next eager eviction instead of polling on a period.
func (c *Cache) NextExpiry() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var earliest time.Time
	found := false
	for _, a := range c.byID {
		if !found || a.Expires.Before(earliest) {
			earliest, found = a.Expires, true
		}
	}
	return earliest, found
}

// Sweep eagerly evicts every advertisement expired at now and reports how
// many were dropped. Lookups and queries already filter expired entries
// (lazy expiry); Sweep additionally reclaims their memory without waiting
// for the next Publish, so a broker under churn does not accumulate dead
// leases between registrations.
func (c *Cache) Sweep(now time.Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	before := len(c.byID)
	c.gcLocked(now)
	return before - len(c.byID)
}

// Clear drops every advertisement — a rendezvous peer restarting with a
// cold cache. Registered peers must re-publish (or be resurrected from
// their next stats report) before the directory answers for them again.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.byID = make(map[ID]Advertisement)
	c.kindLen = make(map[AdvKind]int, 3)
	c.minExpiry = time.Time{}
	c.version++
}

// Remove deletes an advertisement by ID.
func (c *Cache) Remove(id ID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.byID[id]; ok {
		c.kindLen[a.Kind]--
		delete(c.byID, id)
		c.version++
	}
}

// Len reports the number of live advertisements.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gcLocked(c.now())
	return len(c.byID)
}

// LiveLen reports the number of live advertisements of one kind without
// materializing them: after expiry accounting the per-kind counters are
// exact, so — unlike Query — this is O(1) on the static fast path. It always
// equals len(Query(kind, "")).
func (c *Cache) LiveLen(kind AdvKind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gcLocked(c.now())
	return c.kindLen[kind]
}

// Stamp settles expiry accounting as of now and returns the mutation
// version. Because the internal gc removes every entry already expired at
// now (bumping the version per removal) before the version is read, two
// equal stamps guarantee the live set — entries and payloads — is
// byte-identical at both instants: publishes, evictions, explicit removals
// and lazy expiries all advance the version once gc has run. Like LiveLen
// this is O(1) on the static fast path (nothing can have expired before
// minExpiry). The broker's rank index keys on it.
func (c *Cache) Stamp() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gcLocked(c.now())
	return c.version
}

// Standard attribute keys used by the overlay.
const (
	AttrCPUScore = "cpu-score"
	AttrServices = "services"
	AttrCountry  = "country"
	AttrSite     = "site"
	// AttrPieces and AttrUnchoked carry a disseminating peer's piece
	// inventory (comma-joined indices) and currently unchoked hostnames
	// (comma-joined); published by the broker's piece-report handler.
	AttrPieces   = "pieces"
	AttrUnchoked = "unchoked"
)
