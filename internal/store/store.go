// Package store implements the "external database system" of the paper's
// state-management taxonomy (§3.3): the DBMS that microservices, actors and
// workflows delegate state to. It is a multi-version store with selectable
// isolation levels:
//
//   - ReadCommitted: each read sees the latest committed version.
//   - SnapshotIsolation: reads at a start-of-transaction snapshot;
//     first-committer-wins on write-write conflicts.
//   - Serializable: snapshot reads plus commit-time read-set validation
//     (OCC in the style of Silo), which admits only serializable schedules.
//   - Locking2PL: strict two-phase locking with wound-wait deadlock
//     avoidance. This mode supports Prepare (locks held across the prepare
//     window), which is what the XA/2PC participant (internal/xa) and the
//     Orleans-style actor transaction coordinator build on — and is the
//     source of the "blocking protocol" costs §4.2 discusses.
//
// The database also models shared infrastructure contention: a configurable
// admission limit and per-operation service time let the benchmarks
// reproduce the shared-database "noisy neighbor" effect versus
// database-per-service isolation (§3.3, experiment E4).
package store

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Common database errors.
var (
	ErrConflict      = errors.New("store: serialization conflict")
	ErrWriteConflict = errors.New("store: write-write conflict")
	ErrTxnDone       = errors.New("store: transaction already finished")
	ErrNoTable       = errors.New("store: no such table")
	ErrWounded       = errors.New("store: transaction wounded by deadlock avoidance")
	ErrLockTimeout   = errors.New("store: lock wait timeout")
	ErrNotPrepared   = errors.New("store: transaction not prepared")
)

// IsRetryable reports whether err is a transient concurrency-control error
// that the application should retry with a fresh transaction.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrConflict) ||
		errors.Is(err, ErrWriteConflict) ||
		errors.Is(err, ErrWounded) ||
		errors.Is(err, ErrLockTimeout)
}

// Isolation selects the concurrency-control regime of a transaction.
type Isolation int

// Supported isolation levels.
const (
	ReadCommitted Isolation = iota
	SnapshotIsolation
	Serializable
	Locking2PL
)

func (i Isolation) String() string {
	switch i {
	case ReadCommitted:
		return "read-committed"
	case SnapshotIsolation:
		return "snapshot"
	case Serializable:
		return "serializable"
	case Locking2PL:
		return "2pl"
	default:
		return fmt.Sprintf("isolation(%d)", int(i))
	}
}

// Row is one record. The store copies rows on write and returns copies on
// read, so callers may freely mutate what they pass in and get back.
type Row map[string]any

// Clone returns a shallow copy of the row.
func (r Row) Clone() Row {
	if r == nil {
		return nil
	}
	c := make(Row, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

// Int reads column col as an int64 (coercing int), returning 0 when absent.
func (r Row) Int(col string) int64 {
	switch v := r[col].(type) {
	case int64:
		return v
	case int:
		return int64(v)
	default:
		return 0
	}
}

// Str reads column col as a string, returning "" when absent.
func (r Row) Str(col string) string {
	s, _ := r[col].(string)
	return s
}

// Float reads column col as a float64, returning 0 when absent.
func (r Row) Float(col string) float64 {
	switch v := r[col].(type) {
	case float64:
		return v
	case int64:
		return float64(v)
	case int:
		return float64(v)
	default:
		return 0
	}
}

// version is one committed version of a row.
type version struct {
	ts      uint64 // commit timestamp
	row     Row    // nil for deletes
	deleted bool
}

// record is a key's committed version chain, newest first.
type record struct {
	versions []version
}

// latest returns the newest version with ts <= at.
func (rec *record) latest(at uint64) (version, bool) {
	for _, v := range rec.versions {
		if v.ts <= at {
			return v, true
		}
	}
	return version{}, false
}

// table holds records and maintains a sorted key slice for range scans.
type table struct {
	mu     sync.RWMutex
	recs   map[string]*record
	keys   []string
	sorted bool
}

func newTable() *table {
	return &table{recs: make(map[string]*record)}
}

func (t *table) get(key string) (*record, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rec, ok := t.recs[key]
	return rec, ok
}

// install adds a committed version for key at ts. Caller serializes commits.
func (t *table) install(key string, v version) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.recs[key]
	if !ok {
		rec = &record{}
		t.recs[key] = rec
		t.keys = append(t.keys, key)
		t.sorted = false
	}
	rec.versions = append([]version{v}, rec.versions...)
}

func (t *table) sortedKeys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.sorted {
		sort.Strings(t.keys)
		t.sorted = true
	}
	out := make([]string, len(t.keys))
	copy(out, t.keys)
	return out
}

// Config tunes the database's simulated resource envelope.
type Config struct {
	// Name labels the instance in metrics and errors.
	Name string
	// MaxConcurrent caps in-flight operations; 0 means unlimited. A low cap
	// with ServiceTime > 0 models a small connection pool / buffer-pool
	// bound instance whose tenants contend (the shared-database mode).
	MaxConcurrent int
	// ServiceTime is the per-operation busy time actually spent while a
	// slot is held, making the admission cap bite under load.
	ServiceTime time.Duration
	// LockWaitTimeout bounds 2PL lock waits. Zero means 1s.
	LockWaitTimeout time.Duration
}

// DB is an in-memory multi-version database instance.
type DB struct {
	cfg Config

	clock    atomic.Uint64 // last committed timestamp
	txnSeq   atomic.Uint64 // transaction id source (age for wound-wait)
	commitMu sync.Mutex    // serializes validation + install

	mu     sync.RWMutex
	tables map[string]*table

	locks *lockManager
	sem   chan struct{}

	// Stats observable by benchmarks.
	Commits   atomic.Int64
	Aborts    atomic.Int64
	Wounds    atomic.Int64
	Conflicts atomic.Int64
}

// NewDB creates an empty database.
func NewDB(cfg Config) *DB {
	if cfg.LockWaitTimeout <= 0 {
		cfg.LockWaitTimeout = time.Second
	}
	db := &DB{
		cfg:    cfg,
		tables: make(map[string]*table),
	}
	db.locks = newLockManager(db)
	if cfg.MaxConcurrent > 0 {
		db.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	return db
}

// Name returns the configured instance name.
func (db *DB) Name() string { return db.cfg.Name }

// CreateTable ensures a table exists. Idempotent.
func (db *DB) CreateTable(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; !ok {
		db.tables[name] = newTable()
	}
}

func (db *DB) table(name string) (*table, error) {
	db.mu.RLock()
	t, ok := db.tables[name]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t, nil
}

// admit models occupying one unit of the shared database resource for the
// configured service time. The wait is real, so co-located tenants actually
// contend — this is what experiment E4 measures.
func (db *DB) admit() func() {
	if db.sem == nil {
		if db.cfg.ServiceTime > 0 {
			spin(db.cfg.ServiceTime)
		}
		return func() {}
	}
	db.sem <- struct{}{}
	if db.cfg.ServiceTime > 0 {
		spin(db.cfg.ServiceTime)
	}
	return func() { <-db.sem }
}

// spin busy-waits for roughly d, modeling CPU-bound database work (a sleep
// would yield the slot's pressure to the scheduler and mask contention).
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// Now returns the latest commit timestamp.
func (db *DB) Now() uint64 { return db.clock.Load() }

// View runs fn in a read-only snapshot transaction and always releases it.
func (db *DB) View(fn func(tx *Txn) error) error {
	tx := db.Begin(SnapshotIsolation)
	defer tx.Abort()
	return fn(tx)
}

// Update runs fn in a Serializable transaction, retrying on transient
// conflicts up to 10 times. fn may be invoked multiple times.
func (db *DB) Update(fn func(tx *Txn) error) error {
	const maxRetries = 10
	var lastErr error
	for i := 0; i < maxRetries; i++ {
		if i > 0 {
			time.Sleep(updateBackoff(i))
		}
		tx := db.Begin(Serializable)
		if err := fn(tx); err != nil {
			tx.Abort()
			if IsRetryable(err) {
				lastErr = err
				continue
			}
			return err
		}
		err := tx.Commit()
		if err == nil {
			return nil
		}
		if !IsRetryable(err) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("store: retries exhausted: %w", lastErr)
}

// updateBackoff is the wait before Update's retry number attempt (1 for
// the first retry): a uniform draw (full jitter) over a window that starts
// at 20µs and doubles per attempt up to 2ms. Immediate retries let the
// same writers collide again; the jitter spreads them out, and the cap
// bounds a whole Update to a few tens of milliseconds of waiting.
func updateBackoff(attempt int) time.Duration {
	const base, ceiling = 20 * time.Microsecond, 2 * time.Millisecond
	window := min(base<<min(attempt-1, 16), ceiling)
	return time.Duration(rand.Int64N(int64(window)) + 1)
}
