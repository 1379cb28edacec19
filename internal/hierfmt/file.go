package hierfmt

import (
	"fmt"
	"os"
	"path/filepath"

	"mlcg/internal/coarsen"
)

// SaveFile writes the container atomically: a temp file in the target
// directory, fsync, then rename. Readers (a concurrently restarting
// server, a crashed writer's successor) therefore see either the old file,
// the new file, or no file — never a torn container. Torn writes that
// bypass the rename (power loss on a non-atomic filesystem) are caught by
// the per-section checksums on load.
func SaveFile(path string, h *coarsen.Hierarchy, opt SaveOptions) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := Save(f, h, opt); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadFile reads a container into freshly allocated storage.
func LoadFile(path string, opt LoadOptions) (*coarsen.Hierarchy, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	h, meta, err := Load(data, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return h, meta, nil
}
