package platform

import (
	"os"
	"path/filepath"
	"sync"
)

// JournalFile is a file-backed journal writer that, beyond the plain
// append+sync surface any *os.File gives SupervisorConfig.Journal, supports
// the crash-atomic whole-file replacement compaction needs: ReplaceWith
// writes the new contents to a temporary file in the same directory, fsyncs
// it, renames it over the journal path, and fsyncs the directory, so a
// crash at any instant leaves either the old journal or the new one —
// never a mix, never a hole. cmd/supervisor uses it for -journal
// unconditionally, so -snapshot-interval alone turns compaction on.
type JournalFile struct {
	mu   sync.Mutex
	path string
	f    *os.File
}

// OpenJournalFile opens (creating if absent) the journal at path for
// appending.
func OpenJournalFile(path string) (*JournalFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &JournalFile{path: path, f: f}, nil
}

// Write appends p to the journal.
func (j *JournalFile) Write(p []byte) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Write(p)
}

// Sync flushes appended records to stable storage (the JournalSync hook).
func (j *JournalFile) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Sync()
}

// Truncate cuts the journal to size bytes. NewSupervisor calls it on
// restore, cutting the torn tail replay refused (see
// SupervisorConfig.Restore).
func (j *JournalFile) Truncate(size int64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Truncate(size)
}

// Close closes the underlying file.
func (j *JournalFile) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// ReplaceWith atomically replaces the journal's entire contents. The new
// contents are durable before the old ones become unreachable: temp file
// written and fsynced first, then renamed over the journal path (atomic on
// POSIX filesystems), then the directory entry fsynced. Subsequent Writes
// append to the new file.
func (j *JournalFile) ReplaceWith(contents []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(j.path)+".compact-*")
	if err != nil {
		return err
	}
	tmpPath := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpPath)
	}
	if _, err := tmp.Write(contents); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := os.Rename(tmpPath, j.path); err != nil {
		cleanup()
		return err
	}
	// The temp handle becomes the journal fd: its offset already sits at
	// the end of the new contents, and every write is serialized under
	// j.mu (and a supervisor has one writer, its journal committer), so
	// plain writes are appends. Swapping handles instead of reopening by path avoids a
	// window where a failed reopen would leave j.f on the unlinked inode.
	old := j.f
	j.f = tmp
	old.Close()
	// Make the rename itself durable: fsync the directory so the new
	// entry survives a crash (best-effort on filesystems that refuse
	// directory fsync).
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
