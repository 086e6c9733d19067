package store

import "os"

// WriteFileAtomic publishes the concatenation of parts at path so that a
// reader, or a crash at any instant, sees either the previous file or the
// complete new one, never a torn write. The bytes go to a fresh temporary
// file created in tmpDir (named by pattern, as for os.CreateTemp), which is
// synced, closed and then renamed over path; tmpDir must be on path's
// filesystem for the rename to be atomic. On any error the temporary file
// is removed and path is left untouched.
//
// It is the one publish primitive behind the objects of Store and of the
// fleet's Shared root, and the sweep checkpoint and probe-log chunks.
func WriteFileAtomic(tmpDir, pattern, path string, parts ...[]byte) error {
	tmp, err := os.CreateTemp(tmpDir, pattern)
	if err != nil {
		return err
	}
	for _, p := range parts {
		if err == nil {
			_, err = tmp.Write(p)
		}
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
	}
	return err
}
