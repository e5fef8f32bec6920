package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"alicoco"
)

// checkAnswers replays ops [0, n) of the stream over HTTP, one at a time,
// and compares each body, decoded as JSON, with encoding/json of the
// answer an independently loaded facade gives; a 404 must match a
// recommend the facade reports as not found. It returns the SHA-256 over
// the canonical answers (the run's answers digest) and the number of
// mismatches.
func (e *env) checkAnswers(g *generator, n int) (digest string, mismatches int, err error) {
	ref, err := e.loadFresh()
	if err != nil {
		return "", 0, err
	}
	h := sha256.New()
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		o := g.op(uint64(i))
		status, err := e.do(o, &buf)
		if err != nil {
			return "", 0, fmt.Errorf("check op %d: %w", i, err)
		}
		wantStatus, want, err := expected(ref, o)
		if err != nil {
			return "", 0, fmt.Errorf("check op %d: facade: %w", i, err)
		}
		var got []byte
		if status == 200 {
			if got, err = canonical(buf.Bytes()); err != nil {
				got = buf.Bytes()
			}
		}
		if status != wantStatus || !bytes.Equal(got, want) {
			mismatches++
			if mismatches <= 3 {
				fmt.Fprintf(os.Stderr, "answer mismatch, op %d %s %s: status %d want %d\n  got  %.300s\n  want %.300s\n",
					i, o.method(), o.path, status, wantStatus, got, want)
			}
		}
		fmt.Fprintf(h, "%d %d %s\n", i, status, got)
	}
	return hex.EncodeToString(h.Sum(nil)), mismatches, nil
}

// expected is the status and canonical body the server should answer o
// with, computed by the facade ref.
func expected(ref *alicoco.CoCo, o op) (int, []byte, error) {
	ctx := context.Background()
	var v any
	var err error
	switch o.kind {
	case opSearch:
		v, err = ref.SearchCtx(ctx, o.queries[0], searchItems)
	case opRecommend:
		var rec alicoco.Recommendation
		var ok bool
		rec, ok, err = ref.RecommendCtx(ctx, o.sessions[0], recommendK)
		if err == nil && !ok {
			return 404, nil, nil
		}
		v = rec
	case opSearchBatch:
		var res []alicoco.SearchResult
		res, err = ref.SearchBatchBytesCtx(ctx, queryBytes(o.queries), searchItems)
		v = batchBody{res}
	case opRecommendBatch:
		var res []alicoco.BatchRecommendation
		res, err = ref.RecommendBatchCtx(ctx, o.sessions, recommendK)
		v = batchBody{res}
	}
	if err != nil {
		return 0, nil, err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	c, err := canonical(b)
	return 200, c, err
}

// batchBody is the envelope of the batch endpoints' answers.
type batchBody struct {
	Results any `json:"results"`
}

func queryBytes(qs []string) [][]byte {
	out := make([][]byte, len(qs))
	for i, q := range qs {
		out[i] = []byte(q)
	}
	return out
}

// canonical re-marshals a JSON document: object keys sorted, numbers kept
// as written, no insignificant whitespace.
func canonical(b []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}
