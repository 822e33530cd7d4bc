package session

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"

	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/patch"
)

// ImageCacheCapacity is the number of program images an ImageCache holds.
// It covers a serving mix's working set — the bundled targets plus a pool of
// inline-asm bodies — with room to spare. A client sending ever-new bodies
// only evicts the least recently used images; it cannot grow the cache.
const ImageCacheCapacity = 64

// ImageStats is a point-in-time snapshot of an ImageCache.
type ImageStats struct {
	// Builds counts misses: each one assembled or generated its program
	// and, if that succeeded, ran the §4.2 analysis and predecoded it. Hits
	// counts lookups served by an image already built or being built.
	Builds    uint64 `json:"builds"`
	Hits      uint64 `json:"hits"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// ImageCache is a bounded, content-keyed cache of analyzed program images
// (patch.NewImage), least recently used first out. Each key is built once no
// matter how many sessions ask for it concurrently, and every session handed
// the image shares it read-only: its predecoded stream, its correctness-site
// table, and the superblock traces its runs publish. Evicting an image only
// drops the cache's reference — a session still running it keeps it alive,
// and the next lookup builds a fresh one. The zero value is ready to use and
// safe for concurrent use.
type ImageCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element // values are *imageEntry
	lru     list.List                // front = most recently used
	stats   ImageStats
}

// imageEntry is one cached key. done is closed once img or err is set.
type imageEntry struct {
	key  string
	done chan struct{}
	img  *machine.Image
	err  error
}

var errBuildAborted = errors.New("session: image build aborted")

// AsmKey is the cache key of an inline assembly body: the SHA-256 of its
// source, so byte-identical bodies share one image.
func AsmKey(src string) string {
	sum := sha256.Sum256([]byte(src))
	return "asm:" + hex.EncodeToString(sum[:])
}

// Get returns the image cached under key, building it from build's program
// on a miss. A failed build is returned to every caller waiting on it and is
// not cached.
func (c *ImageCache) Get(key string, build func() (*isa.Program, error)) (*machine.Image, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		c.mu.Unlock()
		e := el.Value.(*imageEntry)
		<-e.done
		return e.img, e.err
	}
	if c.entries == nil {
		c.entries = make(map[string]*list.Element)
	}
	e := &imageEntry{key: key, done: make(chan struct{})}
	el := c.lru.PushFront(e)
	c.entries[key] = el
	c.stats.Builds++
	c.mu.Unlock()

	// The deferred publication also runs if build panics: waiters then see
	// errBuildAborted instead of blocking forever, and the key is dropped.
	// Only a successful build evicts, so requests that fail to build cannot
	// push good images out.
	e.err = errBuildAborted
	defer func() {
		close(e.done)
		c.mu.Lock()
		defer c.mu.Unlock()
		if e.err != nil {
			if c.entries[key] == el {
				c.lru.Remove(el)
				delete(c.entries, key)
			}
			return
		}
		for c.lru.Len() > ImageCacheCapacity {
			old := c.lru.Back()
			c.lru.Remove(old)
			delete(c.entries, old.Value.(*imageEntry).key)
			c.stats.Evictions++
		}
	}()
	prog, err := build()
	if err != nil {
		e.err = err
		return nil, err
	}
	e.img, e.err = patch.NewImage(prog)
	return e.img, e.err
}

// Stats snapshots the cache counters.
func (c *ImageCache) Stats() ImageStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	return s
}

// Traces reports how many cached images carry published superblock traces
// and how many traces they carry in all.
func (c *ImageCache) Traces() (images, traces int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*imageEntry)
		select {
		case <-e.done:
		default:
			continue // still building: nothing published yet
		}
		if e.img != nil {
			if n := len(e.img.Traces()); n > 0 {
				images++
				traces += n
			}
		}
	}
	return images, traces
}
