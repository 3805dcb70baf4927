package tracefile

import (
	"encoding/binary"
	"fmt"
	"os"

	"rnuca/internal/trace"
)

// FileWriter is a Writer bound to a file. Its Close finalizes the trace
// and patches the preamble's total-ref count, so readers of completed
// files see an exact count without scanning.
type FileWriter struct {
	*Writer
	f *os.File
}

// Create creates (truncating) a trace file at path.
func Create(path string, hdr Header) (*FileWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	w, err := NewWriter(f, hdr)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return &FileWriter{Writer: w, f: f}, nil
}

// Close flushes, terminates, patches the ref count, and closes the file.
func (fw *FileWriter) Close() error {
	err := fw.Writer.Close()
	if err == nil {
		var count [8]byte
		binary.LittleEndian.PutUint64(count[:], fw.Total())
		if _, werr := fw.f.WriteAt(count[:], countOffset); werr != nil {
			err = fmt.Errorf("tracefile: patching ref count: %w", werr)
		}
	}
	if cerr := fw.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("tracefile: %w", cerr)
	}
	return err
}

// File is a Reader bound to an open file. The file closes itself when
// the trace is exhausted (or fails), so a File handed off as a plain
// trace.RefSource does not leak its descriptor; Close remains available
// for early termination and is idempotent.
type File struct {
	*Reader
	f    *os.File
	path string
}

// Open opens a trace file for streaming.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	r, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return &File{Reader: r, f: f, path: path}, nil
}

// OpenRange opens records [start, start+n) of the trace at path, n 0
// meaning to the end. The whole trace read by one decoder opens as a
// streaming File, which also reads v1 traces; any other range opens as
// a Cursor over the chunk index, and shards > 1 decodes the range with
// that many parallel workers. Every source it returns is a
// trace.Rewinder. done reports the reader's error and releases it; it
// is safe to call after exhaustion.
func OpenRange(path string, start, n uint64, shards int) (src trace.RefSource, done func() error, err error) {
	if start == 0 && n == 0 && shards <= 1 {
		f, err := Open(path)
		if err != nil {
			return nil, nil, err
		}
		return f, func() error { defer f.Close(); return f.Err() }, nil
	}
	x, err := OpenIndexed(path)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 && start <= x.Refs() {
		n = x.Refs() - start
	}
	if shards > 1 {
		p, err := x.Parallel(shards, start, n)
		if err != nil {
			x.Close()
			return nil, nil, err
		}
		return p, func() error { defer x.Close(); defer p.Close(); return p.Err() }, nil
	}
	c, err := x.Window(start, n)
	if err != nil {
		x.Close()
		return nil, nil, err
	}
	return c, func() error { defer x.Close(); return c.Err() }, nil
}

// Rewind implements trace.Rewinder by reopening the file, so a finite
// trace can be looped without buffering it. It refuses after a read
// error: a damaged trace must not recycle its readable prefix.
func (f *File) Rewind() error {
	if err := f.Err(); err != nil {
		return err
	}
	f.Close()
	nf, err := os.Open(f.path)
	if err != nil {
		return fmt.Errorf("tracefile: %w", err)
	}
	r, err := NewReader(nf)
	if err != nil {
		nf.Close()
		return fmt.Errorf("%w (%s)", err, f.path)
	}
	f.Reader, f.f = r, nf
	return nil
}

// Next implements trace.RefSource, closing the file at end of trace.
func (f *File) Next() (trace.Ref, bool) {
	r, ok := f.Reader.Next()
	if !ok {
		f.Close()
	}
	return r, ok
}

// Close closes the underlying file. Safe to call repeatedly.
func (f *File) Close() error {
	if f.f == nil {
		return nil
	}
	err := f.f.Close()
	f.f = nil
	return err
}

// ReadFile decodes an entire trace from disk.
func ReadFile(path string) (Header, []trace.Ref, error) {
	f, err := Open(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer f.Close()
	var refs []trace.Ref
	for {
		ref, ok := f.Reader.Next()
		if !ok {
			break
		}
		refs = append(refs, ref)
	}
	return f.Header(), refs, f.Err()
}
