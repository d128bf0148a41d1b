package persist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

// item is the record type of the test journal.
type item struct {
	Key string
	N   int
}

type itemSnapshot struct {
	LastSeq uint64
	Live    []Entry[string, item]
}

// itemFormat journals items as plain JSON entries and snapshots.
var itemFormat = Format[string, item]{
	WALFile:      "items.wal",
	SnapshotFile: "items.json",
	Key:          func(it item) string { return it.Key },
	Less:         func(a, b string) bool { return a < b },
	EncodeEntry:  func(e Entry[string, item]) ([]byte, error) { return json.Marshal(e) },
	DecodeEntry: func(payload []byte) (Entry[string, item], error) {
		var e Entry[string, item]
		err := json.Unmarshal(payload, &e)
		return e, err
	},
	WriteSnapshot: func(w io.Writer, lastSeq uint64, live []Entry[string, item]) error {
		return json.NewEncoder(w).Encode(itemSnapshot{lastSeq, live})
	},
	ReadSnapshot: func(r io.Reader) (uint64, []Entry[string, item], error) {
		var s itemSnapshot
		err := json.NewDecoder(r).Decode(&s)
		return s.LastSeq, s.Live, err
	},
}

func openItems(t *testing.T, dir string) *Journal[string, item] {
	t.Helper()
	j, err := OpenJournal(dir, itemFormat)
	if err != nil {
		t.Fatalf("OpenJournal(%s): %v", dir, err)
	}
	return j
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJournalCompactLoop: the loop folds the WAL into a snapshot on
// every tick — including entries appended while it runs — absorbs and
// counts a failing compaction, and returns when its context ends.
func TestJournalCompactLoop(t *testing.T) {
	dir := t.TempDir()
	j := openItems(t, dir)
	for i := 0; i < 3; i++ {
		if err := j.Put(item{Key: fmt.Sprint("k", i), N: i}); err != nil {
			t.Fatal(err)
		}
	}
	loop := func() (stop func()) {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			j.CompactLoop(ctx, time.Millisecond)
			close(done)
		}()
		return func() {
			cancel()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("CompactLoop did not return after its context ended")
			}
		}
	}
	stop := loop()
	waitFor(t, "a compaction", func() bool {
		st := j.Stats()
		return st.Snapshots >= 1 && st.WALSizeBytes == 0
	})
	if err := j.Put(item{Key: "k3", N: 3}); err != nil {
		t.Fatal(err)
	}
	// Only a compaction empties the WAL, so an empty one now means k3
	// is in the snapshot.
	waitFor(t, "the late put to be compacted", func() bool { return j.Stats().WALSizeBytes == 0 })
	stop()

	reopened := openItems(t, dir)
	if rec := reopened.Stats().Recovery; rec != (Recovery{SnapshotRecords: 4, Records: 4}) {
		t.Fatalf("recovery %+v, want all four items from the snapshot alone", rec)
	}
	reopened.Close()

	// With its directory gone every compaction fails: the loop counts
	// the failures and keeps ticking until its context ends.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	stop = loop()
	waitFor(t, "counted compaction errors", func() bool { return j.Stats().SnapshotErrors >= 2 })
	stop()
	j.Close()
}

// TestJournalConcurrentUse drives one journal from several goroutines
// at once — puts, overwrites, deletes, forgets, compactions and stats —
// then closes it and reopens the directory to exactly the expected
// state. Each goroutine owns its keys, so that state is deterministic
// whatever the interleaving.
func TestJournalConcurrentUse(t *testing.T) {
	const workers, keys = 4, 25
	dir := t.TempDir()
	j := openItems(t, dir)
	want := map[string]int{}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		for i := 0; i < keys; i++ {
			switch i % 5 {
			case 0, 1: // deleted, forgotten
			case 2:
				want[fmt.Sprintf("w%d-%02d", w, i)] = 100 + i
			default:
				want[fmt.Sprintf("w%d-%02d", w, i)] = i
			}
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("w%d-%02d", w, i)
				err := j.Put(item{Key: key, N: i})
				switch {
				case err != nil:
				case i%5 == 0:
					err = j.Delete(key)
				case i%5 == 1:
					j.Forget(key)
				case i%5 == 2:
					err = j.Put(item{Key: key, N: 100 + i})
				case i%5 == 3:
					err = j.Compact()
				default:
					_ = j.Stats()
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Puts, overwrites and deletes each append one entry; forgets none.
	if st := j.Stats(); st.WALAppends != workers*(keys+2*keys/5) || st.WALAppendErrors != 0 || st.SnapshotErrors != 0 {
		t.Fatalf("stats %+v after %d workers x %d keys", st, workers, keys)
	}
	check := func(j *Journal[string, item]) {
		t.Helper()
		got := map[string]int{}
		for _, it := range j.Records() {
			got[it.Key] = it.N
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("live items %v, want %v", got, want)
		}
	}
	check(j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openItems(t, dir)
	defer reopened.Close()
	if rec := reopened.Stats().Recovery; rec.Records != len(want) || rec.WALRecords != 0 {
		t.Fatalf("recovery %+v, want %d items from the closing snapshot", rec, len(want))
	}
	check(reopened)
}
