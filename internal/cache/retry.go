package cache

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"syscall"
	"time"

	"outliner/internal/fault"
)

// Class buckets a disk I/O error for the retry policy. The cache never
// propagates any of these as a build failure — every class ultimately
// degrades to a miss (Get) or an unpublished entry (Put); the class only
// decides whether retrying first is worth it.
type Class int

const (
	// ClassTransient: a flaky-disk style blip (interrupted syscall, busy
	// file, generic I/O error, descriptor exhaustion, timeout). Retried
	// with capped exponential backoff.
	ClassTransient Class = iota
	// ClassCorrupt: the entry read fine but failed validation (magic,
	// length, checksum). Retrying the read would return the same bytes;
	// the entry is discarded instead.
	ClassCorrupt
	// ClassFatal: the environment says no (disk full, read-only
	// filesystem, permissions). Retrying cannot help; degrade immediately.
	ClassFatal
)

func (c Class) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassCorrupt:
		return "corrupt"
	case ClassFatal:
		return "fatal"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// ErrCorrupt is wrapped by every entry-validation failure, so
// Classify(err) == ClassCorrupt exactly when decodeEntry rejected the bytes.
var ErrCorrupt = errors.New("corrupt cache entry")

// fatalErrnos end a retry loop immediately: the condition is environmental
// and a fourth attempt fails like the first.
var fatalErrnos = []syscall.Errno{
	syscall.ENOSPC, syscall.EROFS, syscall.EACCES, syscall.EPERM,
}

// transientErrnos document the expected flaky-I/O shapes. The list is not a
// gate — Classify treats every unrecognized error as transient, because one
// wasted retry is cheaper than misclassifying a recoverable blip as fatal.
var transientErrnos = []syscall.Errno{
	syscall.EINTR, syscall.EAGAIN, syscall.EBUSY, syscall.EIO,
	syscall.ENFILE, syscall.EMFILE, syscall.ETIMEDOUT,
}

// Classify buckets err for the retry policy. Injected fault errors classify
// by their Transient bit so chaos schedules exercise both retry outcomes.
func Classify(err error) Class {
	if errors.Is(err, ErrCorrupt) {
		return ClassCorrupt
	}
	var fe *fault.Error
	if errors.As(err, &fe) {
		if fe.Transient {
			return ClassTransient
		}
		return ClassFatal
	}
	for _, errno := range fatalErrnos {
		if errors.Is(err, errno) {
			return ClassFatal
		}
	}
	return ClassTransient
}

// Retry policy: up to retryAttempts tries per disk operation, sleeping
// retryBase·2^(attempt−1) capped at retryCap between tries. The backoff
// touches only the wall clock, never cache keys or artifact bytes, so
// retries cannot perturb build determinism.
const (
	retryAttempts = 4
	retryBase     = time.Millisecond
	retryCap      = 10 * time.Millisecond
)

// Probe reports what a Get/Put survived, beyond hit/miss: the pipeline
// turns these into obs counters (cache/retries, cache/remove_failed,
// cache/io_errors) so degraded builds stay visible in -summary.
type Probe struct {
	Retries   int   // transient-I/O retries performed
	Corrupt   bool  // a damaged disk entry was detected and discarded
	RemoveErr error // deleting the damaged entry failed (entry left behind)
	IOErr     error // final I/O error the operation degraded over, if any
	RemoteErr error // remote-shard error the operation degraded over, if any
	// Tier names the tier that served a hit — "memory", "disk", or
	// "remote-shard-<n>" — and is empty on a miss (or a Put). The -summary
	// scoreboard uses it to attribute multi-tier hits.
	Tier string
}

// merge folds another operation's probe into p (the pipeline aggregates one
// probe across a get-then-put sequence).
func (p *Probe) Merge(q Probe) {
	p.Retries += q.Retries
	p.Corrupt = p.Corrupt || q.Corrupt
	if p.RemoveErr == nil {
		p.RemoveErr = q.RemoveErr
	}
	if p.IOErr == nil {
		p.IOErr = q.IOErr
	}
	if p.RemoteErr == nil {
		p.RemoteErr = q.RemoteErr
	}
	if p.Tier == "" {
		p.Tier = q.Tier
	}
}

// SetFault arms deterministic fault injection on this cache's disk I/O
// paths. Arm only private (Open) instances: a Shared cache would leak
// injected faults into unrelated builds in the same process.
func (c *Cache) SetFault(inj *fault.Injector) {
	if c != nil {
		c.fault = inj
	}
}

// backoff sleeps before retry attempt (attempt ≥ 1) for
// retryBase·2^(attempt−1) capped at retryCap — the one retry delay the disk
// and remote tiers share.
func backoff(sleep func(time.Duration), attempt int) {
	sleepVia(sleep, min(retryBase<<(attempt-1), retryCap))
}

// sleepVia sleeps for d through the injectable clock sleep (nil means
// time.Sleep), so tests run at full speed.
func sleepVia(sleep func(time.Duration), d time.Duration) {
	if sleep != nil {
		sleep(d)
		return
	}
	time.Sleep(d)
}

// removeEntry deletes a damaged entry file, via the injectable remover so
// tests can simulate an undeletable entry (chmod tricks don't work when the
// test runs as root).
func (c *Cache) removeEntry(path string) error {
	if c.remove != nil {
		return c.remove(path)
	}
	return os.Remove(path)
}

// readEntry reads the raw entry file with transient-error retry. A
// not-exist error returns immediately (a plain miss, not a fault); fatal
// errors end the loop; everything else retries with backoff. Each attempt
// re-rolls the fault schedule under its own key, so an injected transient
// blip on attempt 0 can heal on attempt 1 — the shape a retry loop exists
// for. A done ctx aborts the loop between attempts — a cancelled build
// stops retrying and degrades to a miss.
func (c *Cache) readEntry(ctx context.Context, id, path string, pr *Probe) ([]byte, error) {
	var err error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			pr.Retries++
			backoff(c.sleep, attempt)
		}
		ierr := c.fault.MaybeError(fault.CacheRead, fmt.Sprintf("%s#%d", id, attempt))
		var raw []byte
		if ierr == nil {
			raw, ierr = os.ReadFile(path)
		}
		if ierr == nil {
			return raw, nil
		}
		err = ierr
		if errors.Is(err, fs.ErrNotExist) || Classify(err) == ClassFatal {
			break
		}
	}
	return nil, err
}

// writeEntry publishes an encoded entry with transient-error retry, using
// the temp-file + atomic-rename protocol from the Put documentation. A done
// ctx aborts the loop between attempts; the rename protocol guarantees no
// torn entry regardless of where the abort lands.
func (c *Cache) writeEntry(ctx context.Context, id string, enc []byte, pr *Probe) error {
	var err error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			pr.Retries++
			backoff(c.sleep, attempt)
		}
		ierr := c.tryWrite(id, attempt, enc)
		if ierr == nil {
			return nil
		}
		err = ierr
		if Classify(err) == ClassFatal {
			break
		}
	}
	return err
}

func (c *Cache) tryWrite(id string, attempt int, enc []byte) error {
	if err := c.fault.MaybeError(fault.CacheWrite, fmt.Sprintf("%s#%d", id, attempt)); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(enc)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	// Atomic publication: readers see either no entry or a complete one.
	if err := os.Rename(tmp.Name(), c.entryPath(id)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
