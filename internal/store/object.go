package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// object.go — the one on-disk object format, written and read by both Store
// and Shared. Every object file verifies on its own, so no index has to
// vouch for it:
//
//	offset  size  field
//	0       6     magic "RPSOBJ"
//	6       2     format version, little-endian (1)
//	8       8     build cost in nanoseconds, little-endian (Shared writes 0)
//	16      32    SHA-256 over bytes 8..16 (the cost) and the payload
//	48      n     payload
//
// The decoder guards the trust boundary with the filesystem: a torn write,
// bit rot, a legacy file or a hostile edit comes back as an error, never a
// panic, and it never allocates (the payload aliases the bytes read), so no
// unverified length can size an allocation (FuzzStoreObject enforces this).

const (
	objectMagic   = "RPSOBJ"
	objectVersion = 1
	headerLen     = 48

	objectsSub = "objects"
	tmpSub     = "tmp"

	// maxKeyLen bounds a key; store keys are digest+fingerprint strings,
	// far below this.
	maxKeyLen = 4096
)

var (
	errObjectShort    = errors.New("store: object shorter than its header")
	errObjectMagic    = errors.New("store: object has a bad magic or version")
	errObjectChecksum = errors.New("store: object checksum mismatch")
)

// header is the fixed-size prefix of an object file.
type header [headerLen]byte

// newHeader returns the header that publishes payload with its build cost.
func newHeader(cost time.Duration, payload []byte) (h header) {
	copy(h[:], objectMagic)
	binary.LittleEndian.PutUint16(h[6:8], objectVersion)
	binary.LittleEndian.PutUint64(h[8:16], uint64(cost))
	sum := h.sumOf(payload)
	copy(h[16:], sum[:])
	return h
}

// sumOf is the checksum h would carry for payload under h's recorded cost.
func (h *header) sumOf(payload []byte) (sum [sha256.Size]byte) {
	d := sha256.New()
	d.Write(h[8:16])
	d.Write(payload)
	d.Sum(sum[:0])
	return sum
}

func (h *header) cost() time.Duration {
	return time.Duration(binary.LittleEndian.Uint64(h[8:16]))
}

// verify checks h's magic and version and that its checksum covers payload.
func (h *header) verify(payload []byte) error {
	if string(h[:6]) != objectMagic || binary.LittleEndian.Uint16(h[6:8]) != objectVersion {
		return errObjectMagic
	}
	if h.sumOf(payload) != [sha256.Size]byte(h[16:]) {
		return errObjectChecksum
	}
	return nil
}

// decodeObject verifies a whole object file and returns its payload, which
// aliases raw, and its recorded build cost.
func decodeObject(raw []byte) ([]byte, time.Duration, error) {
	if len(raw) < headerLen {
		return nil, 0, errObjectShort
	}
	h := (*header)(raw[:headerLen])
	payload := raw[headerLen:]
	if err := h.verify(payload); err != nil {
		return nil, 0, err
	}
	return payload, h.cost(), nil
}

// objectName is the file name addressing key under objects/:
// hex(sha256(key)). Hashing the key keeps arbitrary key strings out of the
// filesystem namespace. It is an array so lookups need not allocate.
func objectName(key string) (name [2 * sha256.Size]byte) {
	sum := sha256.Sum256([]byte(key))
	hex.Encode(name[:], sum[:])
	return name
}

// objectPath is the path of the object file called name under root.
func objectPath(root, name string) string {
	return filepath.Join(root, objectsSub, name)
}

// checkKey rejects keys no publisher accepts.
func checkKey(key string) error {
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	if len(key) > maxKeyLen {
		return fmt.Errorf("store: key length %d exceeds %d", len(key), maxKeyLen)
	}
	return nil
}

// writeObject publishes payload with its build cost at path under root
// through WriteFileAtomic, and returns the header it wrote.
func writeObject(root, path string, payload []byte, cost time.Duration) (header, error) {
	h := newHeader(cost, payload)
	if err := WriteFileAtomic(filepath.Join(root, tmpSub), "obj-*", path, h[:], payload); err != nil {
		return h, fmt.Errorf("store: publishing object: %w", err)
	}
	return h, nil
}

// published reports whether the object file at path already holds payload,
// whatever cost it records, reading only the header: publishers call it to
// skip rewriting an object that is already in place.
func published(path string, payload []byte) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var h header
	if fi, err := f.Stat(); err != nil || fi.Size() != headerLen+int64(len(payload)) {
		return false
	}
	if _, err := io.ReadFull(f, h[:]); err != nil {
		return false
	}
	return h.verify(payload) == nil
}

// openRoot creates root's objects/ and tmp/ directories and sweeps tmp/ of
// the temporaries a crashed publication left behind.
func openRoot(root string) error {
	for _, sub := range []string{objectsSub, tmpSub} {
		if err := os.MkdirAll(filepath.Join(root, sub), 0o755); err != nil {
			return fmt.Errorf("store: creating %s: %w", sub, err)
		}
	}
	if tmps, err := os.ReadDir(filepath.Join(root, tmpSub)); err == nil {
		for _, de := range tmps {
			_ = os.Remove(filepath.Join(root, tmpSub, de.Name()))
		}
	}
	return nil
}
