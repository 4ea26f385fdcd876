package core_test

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/proql"
	"repro/internal/provgraph"
)

// annotationSignature renders the derivability of every tuple, by an
// EVALUATE over whole ancestries, deterministically.
func annotationSignature(t *testing.T, sys *core.System) string {
	t.Helper()
	res, err := sys.Query(`EVALUATE DERIVABILITY OF { FOR [$x] INCLUDE PATH [$x] <-+ [] RETURN $x }`)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 0, len(res.Annotations))
	for ref, v := range res.Annotations {
		lines = append(lines, fmt.Sprintf("%v=%v", ref, v))
	}
	sort.Strings(lines)
	return fmt.Sprint(lines)
}

// TestAnnotateConcurrentWithWrites: an EVALUATE query reads the one
// snapshot it pins, so a writer deleting and re-inserting a row beside
// it neither races with it nor shows it half a commit: every result is
// the annotation of the instance with the row or of the instance
// without it.
func TestAnnotateConcurrentWithWrites(t *testing.T) {
	sys := openExample(t)
	row := model.Tuple{int64(1), "sn1", int64(7)}
	with := annotationSignature(t, sys)
	if _, _, err := sys.Delete("A", row[:1]); err != nil {
		t.Fatal(err)
	}
	without := annotationSignature(t, sys)
	if _, err := sys.Insert("A", row); err != nil {
		t.Fatal(err)
	}
	if with == without {
		t.Fatal("deleting A(1) should change the annotations")
	}

	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, _, err := sys.Delete("A", row[:1]); err != nil {
				t.Error(err)
				return
			}
			if _, err := sys.Insert("A", row); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 2*rounds; i++ {
		if got := annotationSignature(t, sys); got != with && got != without {
			t.Fatalf("annotations of no committed state:\n%s", got)
		}
	}
	wg.Wait()
}

// TestWriteNotBlockedByGraphQuery: a write commits while a graph query
// is still evaluating — no latch is held across a query's evaluation —
// and once that query ends the adapter the commit retired gives back
// its snapshot pin. Served graph queries, EVALUATE included, build no
// provenance graph.
func TestWriteNotBlockedByGraphQuery(t *testing.T) {
	sys := openExample(t)
	eng := sys.Engine()
	db := sys.Exchange().DB
	pins := db.Pins()
	builds := provgraph.Builds()

	q := proql.MustParse(targetQuery)
	started, unblock := make(chan struct{}), make(chan struct{})
	var once sync.Once
	q.Cancel = func() error {
		once.Do(func() { close(started) })
		<-unblock
		return nil
	}
	queried := make(chan error, 1)
	go func() {
		_, err := eng.Eval(context.Background(), q, proql.Options{Backend: "path"})
		queried <- err
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("the graph query never started evaluating")
	}
	wrote := make(chan error, 1)
	go func() {
		_, _, err := sys.Delete("A", []model.Datum{int64(1)})
		wrote <- err
	}()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(unblock)
		<-queried
		<-wrote
		t.Fatal("Delete waited for the in-flight graph query")
	}
	close(unblock)
	if err := <-queried; err != nil {
		t.Fatal(err)
	}
	if got := db.Pins(); got != pins {
		t.Errorf("%d snapshot pins after the query ended, want %d as before it", got, pins)
	}

	for _, text := range []string{
		targetQuery,
		`EVALUATE TRUST OF { ` + targetQuery + ` }`,
		`FOR [O $x] <-+ [$z], [C $y] <-+ [$z] RETURN $x, $y`,
	} {
		if _, err := eng.Eval(context.Background(), proql.MustParse(text), proql.Options{Backend: "path"}); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	}
	if got := provgraph.Builds() - builds; got != 0 {
		t.Errorf("served graph queries built %d provenance graphs, want 0", got)
	}
}
