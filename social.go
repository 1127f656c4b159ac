package tca

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"tca/internal/wire"
	"tca/internal/workload"
)

// The DeathStarBench-style social network (§5.3, ref [27]) as a
// first-class App: compose-post is the hot path, and its declared key set
// IS the author's follower list — one timeline key per follower, plus the
// author's post log. That makes the workload a direct stress test of the
// wide-transaction machinery in every cell: the statefun choreography
// spends one read send per key, chunked across continuation rounds past
// the runtime's per-invocation send budget (a 128-follower celebrity post
// is ~5 scatter rounds and ~5 emit rounds, no longer a hard failure), and
// on the partitioned core a single post spans many partitions — the
// multi-partition scheduling E16 measures, driven by a real workload.
//
// State encoding:
//
//	posts/U     EncodeIntList — U's post log, the socialPostLogCap newest post ids
//	timeline/U  EncodeIntList — U's timeline, the socialTimelineCap newest delivered post ids
//	follow/U/F  EncodeInt — 1 while F follows U, 0 after an unfollow
//
// Both encodings are binary varints (app.go). compose-post returns its
// fan-out as an EncodeInt value and read-timeline the timeline as an
// EncodeIntList value, in that binary form.
//
// Timelines and post logs are bounded id lists maintained with the
// commutative Txn.PushCap merge, and follow edges are ±1 counters, so
// every cell keeps the whole model exact — the social matrix (E19) shows
// the taxonomy's costs, not its anomalies. read-timeline is declared
// ReadOnly.

// Social op names, matching workload.SocialKind.String() for the
// generated kinds (read-timeline is driven by benchmarks directly).
const (
	SocialComposePost  = "compose-post"
	SocialReadTimeline = "read-timeline"
	SocialFollowOp     = "follow"
	SocialUnfollowOp   = "unfollow"
)

// socialTimelineCap bounds a timeline to the newest post ids — the "last
// K posts" read path of a real timeline service; socialPostLogCap bounds
// the author's own post log.
const (
	socialTimelineCap = 8
	socialPostLogCap  = 16
)

// SocialOpName maps a generated op to its registered op name.
func SocialOpName(op workload.SocialOp) string { return op.Kind.String() }

// socialTimelineArgs is read-timeline's wire argument.
type socialTimelineArgs struct {
	User int `json:"user"`
}

// parseSocialTimelineArgs decodes read-timeline's JSON argument as
// encoding/json would (wire.JSONReader).
func parseSocialTimelineArgs(b []byte) (socialTimelineArgs, error) {
	var a socialTimelineArgs
	r := wire.NewJSONReader(b)
	for it := r.Object(); r.Next(&it); {
		if string(r.Key()) == "user" {
			a.User = r.Int()
		} else {
			r.Skip()
		}
	}
	return a, r.Finish()
}

// SocialApp builds the social network as a model-agnostic App.
// Op arguments are JSON-encoded workload.SocialOp descriptors — the
// follower list rides in the compose-post descriptor, Calvin-style
// reconnaissance done by the workload layer, whose generator owns the
// authoritative graph and mutates it through the same follow/unfollow
// stream the cells apply as edge counters. workload.ParseSocialOp decodes
// them for every op.
func SocialApp() *App {
	parse, keys := workload.ParseSocialOp, workload.SocialOp.Keys
	return NewApp("social").
		Register(opFor(SocialComposePost, parse, keys, socialComposePost)).
		Register(opFor(SocialFollowOp, parse, keys, socialFollow)).
		Register(opFor(SocialUnfollowOp, parse, keys, socialUnfollow)).
		Register(queryFor(SocialReadTimeline, parseSocialTimelineArgs,
			func(a socialTimelineArgs) []string { return []string{workload.TimelineKey(a.User)} },
			socialReadTimeline))
}

// socialComposePost appends the post id to the author's log and fans it
// out to every follower's timeline — pure commutative bounded-list merges
// over the declared key set, exact on every cell in any delivery order.
func socialComposePost(tx Txn, op workload.SocialOp) ([]byte, error) {
	if err := tx.PushCap(workload.PostsKey(op.Author), op.PostID, socialPostLogCap); err != nil {
		return nil, err
	}
	for _, f := range op.Followers {
		if err := tx.PushCap(workload.TimelineKey(f), op.PostID, socialTimelineCap); err != nil {
			return nil, err
		}
	}
	return EncodeInt(int64(len(op.Followers))), nil
}

// socialFollow flips the (author, follower) edge counter up — a
// commutative delta, so churn interleaved with posts stays exact on every
// cell.
func socialFollow(tx Txn, op workload.SocialOp) ([]byte, error) {
	return nil, tx.Add(workload.FollowKey(op.Author, op.Follower), 1)
}

// socialUnfollow flips the edge counter back down.
func socialUnfollow(tx Txn, op workload.SocialOp) ([]byte, error) {
	return nil, tx.Add(workload.FollowKey(op.Author, op.Follower), -1)
}

// socialReadTimeline returns the user's timeline — the bounded list of
// newest delivered post ids, canonically encoded — via the read-only fast
// path of every cell.
func socialReadTimeline(tx Txn, a socialTimelineArgs) ([]byte, error) {
	raw, _, err := tx.Get(workload.TimelineKey(a.User))
	if err != nil {
		return nil, err
	}
	return EncodeIntList(DecodeIntList(raw)), nil
}

// SocialAuditor audits accepted social ops incrementally on the shared
// engine (audit.go): a cell's post logs, timelines, and follow edges are
// verified against the serial reference with list-exact delivery
// semantics. The whole state model is commutative (bounded-list merges
// and ±1 edge deltas), so every cell — even the eventual ones — must
// match: a mismatch means lost or duplicated delivery, not missing
// isolation, and the order verdict never windows a commutative-only
// commit (social auditing costs O(delta) per post, full stop). On top of
// per-key equality the auditor maintains read-your-writes incrementally:
// every author's own post log must contain their most recent accepted
// post.
type SocialAuditor struct {
	*refAuditor
	mu       sync.Mutex
	lastPost map[int]int64 // author -> most recent accepted post id
}

// NewSocialAuditor creates an empty auditor.
func NewSocialAuditor() *SocialAuditor {
	a := &SocialAuditor{lastPost: make(map[int]int64)}
	a.refAuditor = newRefAuditor(auditorConfig{
		app: SocialApp(),
		compare: func(key string, got, want []byte) string {
			if strings.HasPrefix(key, "follow/") {
				if g, w := DecodeInt(got), DecodeInt(want); g != w {
					return fmt.Sprintf("%s: edge count %d, serial reference %d", key, g, w)
				}
				return ""
			}
			g, w := DecodeIntList(got), DecodeIntList(want)
			if !equalInt64s(g, w) {
				return fmt.Sprintf("%s: delivered %v, serial reference %v", key, g, w)
			}
			return ""
		},
		onObserve: func(opName string, args []byte) {
			if opName != SocialComposePost {
				return
			}
			op, err := workload.ParseSocialOp(args)
			if err != nil {
				return
			}
			a.mu.Lock()
			a.lastPost[op.Author] = op.PostID
			a.mu.Unlock()
		},
		// Read-your-writes: the author's own post log must contain their
		// most recent post (post ids are monotone, so the newest is never
		// the one a bounded log evicts).
		finalize: func(read func(string) ([]byte, error), add func(string)) error {
			a.mu.Lock()
			defer a.mu.Unlock()
			for _, author := range sortedIntKeys(a.lastPost) {
				post := a.lastPost[author]
				raw, err := read(workload.PostsKey(author))
				if err != nil {
					return err
				}
				if !containsInt64(DecodeIntList(raw), post) {
					add(fmt.Sprintf("read-your-writes: %s missing author %d's own post %d", workload.PostsKey(author), author, post))
				}
			}
			return nil
		},
	})
	return a
}

// RecordOp folds one accepted op into the reference in serial order.
func (a *SocialAuditor) RecordOp(op workload.SocialOp) {
	args, _ := json.Marshal(op)
	a.ObserveSerial(SocialOpName(op), args)
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsInt64(vs []int64, v int64) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}

func sortedIntKeys(m map[int]int64) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
