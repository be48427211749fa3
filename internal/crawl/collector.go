// Package crawl runs the paper's data-collection methodology against a
// live deployment and turns what it collects into the core data model.
package crawl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"blueskies/internal/core"
	"blueskies/internal/dnssim"
	"blueskies/internal/events"
	"blueskies/internal/identity"
	"blueskies/internal/lexicon"
	"blueskies/internal/plc"
	"blueskies/internal/repo"
	"blueskies/internal/whois"
	"blueskies/internal/xrpc"
)

// Collector runs the paper's data-collection methodology against a
// live deployment (§3): identifier enumeration via sync.listRepos,
// DID document downloads, repository snapshots via sync.getRepo,
// Firehose subscription, labeler stream consumption, feed generator
// crawls, active handle verification (DNS TXT + well-known), and
// WHOIS scans.
type Collector struct {
	// RelayURL is the relay base URL (listRepos/getRepo/firehose).
	RelayURL string
	// PLCURL is the PLC directory base URL.
	PLCURL string
	// AppViewURL serves getFeedGenerator/getFeed.
	AppViewURL string
	// DNSAddr is the resolver target for _atproto TXT proofs.
	DNSAddr string
	// WhoisAddr is the WHOIS server address.
	WhoisAddr string
	// LabelerURLs lists labeler service endpoints to subscribe to.
	LabelerURLs []string
}

// RepoListing is one sync.listRepos entry.
type RepoListing struct {
	DID  string `json:"did"`
	Head string `json:"head"`
	Rev  string `json:"rev"`
}

// ListIdentifiers enumerates every repository known to the relay.
func (c *Collector) ListIdentifiers(ctx context.Context) ([]RepoListing, error) {
	client := xrpc.NewClient(c.RelayURL)
	var out []RepoListing
	cursor := ""
	for {
		params := url.Values{"limit": {"100"}}
		if cursor != "" {
			params.Set("cursor", cursor)
		}
		var page struct {
			Cursor string        `json:"cursor"`
			Repos  []RepoListing `json:"repos"`
		}
		if err := client.Query(ctx, "com.atproto.sync.listRepos", params, &page); err != nil {
			return nil, err
		}
		out = append(out, page.Repos...)
		if page.Cursor == "" {
			return out, nil
		}
		cursor = page.Cursor
	}
}

// FetchDIDDocument downloads one DID document from the directory.
func (c *Collector) FetchDIDDocument(did identity.DID) (identity.Document, error) {
	return plc.NewClient(c.PLCURL).Resolve(did)
}

// FetchRepo downloads and parses a repository snapshot via the relay.
func (c *Collector) FetchRepo(ctx context.Context, did identity.DID) (*repo.Repo, error) {
	client := xrpc.NewClient(c.RelayURL)
	carBytes, err := client.QueryBytes(ctx, "com.atproto.sync.getRepo", url.Values{"did": {string(did)}})
	if err != nil {
		return nil, err
	}
	return repo.LoadCAR(bytes.NewReader(carBytes), nil)
}

// CollectFirehose subscribes to the firehose and counts event types
// until n events arrive or the timeout elapses.
func (c *Collector) CollectFirehose(n int, timeout time.Duration) (core.EventCounts, error) {
	sub, err := events.Subscribe(c.RelayURL, "com.atproto.sync.subscribeRepos", 0)
	if err != nil {
		return core.EventCounts{}, err
	}
	defer sub.Close()
	var counts core.EventCounts
	deadline := time.Now().Add(timeout)
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		ev, err := sub.NextTimeout(time.Until(deadline))
		if err != nil {
			break
		}
		switch ev.(type) {
		case *events.Commit:
			counts.Commits++
		case *events.Identity:
			counts.Identity++
		case *events.Handle:
			counts.Handle++
		case *events.Tombstone:
			counts.Tombstone++
		}
	}
	return counts, nil
}

// CollectLabels consumes each labeler stream from sequence zero (full
// backfill) until expected labels arrive or the timeout elapses.
func (c *Collector) CollectLabels(expected int, timeout time.Duration) ([]events.Label, error) {
	var out []events.Label
	deadline := time.Now().Add(timeout)
	for _, endpoint := range c.LabelerURLs {
		sub, err := events.Subscribe(endpoint, "com.atproto.label.subscribeLabels", 0)
		if err != nil {
			// The paper found only 46 of 62 endpoints functional; an
			// unreachable labeler is data, not an error.
			continue
		}
		for len(out) < expected && time.Now().Before(deadline) {
			ev, err := sub.NextTimeout(200 * time.Millisecond)
			if err != nil {
				break
			}
			if ls, ok := ev.(*events.Labels); ok {
				out = append(out, ls.Labels...)
			}
		}
		sub.Close()
	}
	return out, nil
}

// Stream subscribes to the relay firehose and every configured labeler
// stream (cursor 0, i.e. full backfill then live) and multiplexes the
// decoded record blocks into one channel — the streaming counterpart
// of Snapshot. Mirroring the paper's methodology (labelers are
// enumerated before their streams are consumed), labeler subscriptions
// only start after the firehose delivers its first block, so a
// replayed corpus header announces the labeler population before any
// label references it. Each subscription runs until its end-of-stream
// marker (replayed corpora), a terminal read error, or ctx
// cancellation; the block channel closes when every subscription has
// ended. Errors are reported on the second channel (buffered; read
// after the block channel closes). Records of one collection preserve
// their stream order; collections from different subscriptions
// interleave arbitrarily, which the analysis accumulators tolerate by
// design.
func (c *Collector) Stream(ctx context.Context) (<-chan core.RecordBlock, <-chan error) {
	out := make(chan core.RecordBlock, 8)
	errs := make(chan error, 1+len(c.LabelerURLs))
	gate := core.NewStreamGate()
	var wg sync.WaitGroup
	consume := func(base, nsid string, primary bool) {
		defer wg.Done()
		if primary {
			// Abort (not open) on a primary that never delivers: the
			// labeler consumers must not run on a stream whose labelers
			// were never enumerated.
			defer gate.Abort()
		} else {
			if !gate.Wait(ctx) {
				return
			}
		}
		sub, err := events.Subscribe(base, nsid, 0)
		if err != nil {
			// Mirror CollectLabels: an unreachable labeler is data,
			// not a stream-fatal error.
			if !primary {
				return
			}
			errs <- err
			return
		}
		defer sub.Close()
		var lastSeq int64
		for ctx.Err() == nil {
			ev, err := sub.NextTimeout(250 * time.Millisecond)
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					continue // idle stream; re-check ctx
				}
				errs <- err
				return
			}
			// Silent sequence gaps (frames the server dropped past a
			// slow subscriber) would thin the corpus undetectably.
			if s := events.Seq(ev); s >= 0 {
				if s <= lastSeq {
					continue
				}
				if lastSeq > 0 && s > lastSeq+1 {
					errs <- fmt.Errorf("crawl: %s stream lost %d frames (seq %d → %d)", nsid, s-lastSeq-1, lastSeq, s)
					return
				}
				lastSeq = s
			}
			block, eof, err := core.DecodeStreamEvent(ev)
			if err != nil {
				errs <- err
				return
			}
			if eof {
				return
			}
			if block == nil {
				continue
			}
			select {
			case out <- *block:
				if primary {
					gate.Open()
				}
			case <-ctx.Done():
				return
			}
		}
	}
	wg.Add(1 + len(c.LabelerURLs))
	go consume(c.RelayURL, "com.atproto.sync.subscribeRepos", true)
	for _, u := range c.LabelerURLs {
		go consume(u, "com.atproto.label.subscribeLabels", false)
	}
	go func() {
		wg.Wait()
		close(out)
		close(errs)
	}()
	return out, errs
}

// FeedGeneratorView is the AppView's getFeedGenerator response.
type FeedGeneratorView struct {
	URI         string
	DisplayName string
	Description string
	LikeCount   int
	IsOnline    bool
	IsValid     bool
	PostURIs    []string
}

// CrawlFeedGenerator fetches generator metadata and its feed contents.
func (c *Collector) CrawlFeedGenerator(ctx context.Context, feedURI string) (FeedGeneratorView, error) {
	client := xrpc.NewClient(c.AppViewURL)
	var meta struct {
		View struct {
			URI         string `json:"uri"`
			DisplayName string `json:"displayName"`
			Description string `json:"description"`
			LikeCount   int    `json:"likeCount"`
		} `json:"view"`
		IsOnline bool `json:"isOnline"`
		IsValid  bool `json:"isValid"`
	}
	if err := client.Query(ctx, "app.bsky.feed.getFeedGenerator", url.Values{"feed": {feedURI}}, &meta); err != nil {
		return FeedGeneratorView{}, err
	}
	view := FeedGeneratorView{
		URI: meta.View.URI, DisplayName: meta.View.DisplayName,
		Description: meta.View.Description, LikeCount: meta.View.LikeCount,
		IsOnline: meta.IsOnline, IsValid: meta.IsValid,
	}
	var feed struct {
		Feed []struct {
			Post map[string]any `json:"post"`
		} `json:"feed"`
	}
	if err := client.Query(ctx, "app.bsky.feed.getFeed", url.Values{"feed": {feedURI}, "limit": {"100"}}, &feed); err != nil {
		return view, nil // metadata ok, posts unavailable (§3's 93 %)
	}
	for _, item := range feed.Feed {
		if uri, ok := item.Post["uri"].(string); ok {
			view.PostURIs = append(view.PostURIs, uri)
		}
	}
	return view, nil
}

// VerifyHandle actively verifies handle ownership: DNS TXT first, then
// the well-known HTTPS file, returning the proof method that worked.
func (c *Collector) VerifyHandle(handle identity.Handle, did identity.DID, wellKnownBase string) (core.ProofMethod, error) {
	res := dnssim.NewResolver(c.DNSAddr)
	vals, err := res.LookupTXT(handle.TXTRecordName())
	if err == nil {
		for _, v := range vals {
			if strings.TrimPrefix(v, "did=") == string(did) {
				return core.ProofDNSTXT, nil
			}
		}
	}
	if wellKnownBase != "" {
		resp, err := http.Get(wellKnownBase + identity.WellKnownPath)
		if err == nil {
			defer resp.Body.Close()
			buf := make([]byte, 256)
			n, _ := resp.Body.Read(buf)
			if strings.TrimSpace(string(buf[:n])) == string(did) {
				return core.ProofWellKnown, nil
			}
		}
	}
	return "", fmt.Errorf("crawl: no ownership proof for %s", handle)
}

// ScanWHOIS looks up each registered domain.
func (c *Collector) ScanWHOIS(domains []string) ([]whois.Record, error) {
	var client whois.Client
	out := make([]whois.Record, 0, len(domains))
	for _, d := range domains {
		rec, err := client.Scan(c.WhoisAddr, d)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// Snapshot runs the full pipeline against a live network and builds a
// core.Dataset: the live-protocol reproduction mode.
func (c *Collector) Snapshot(ctx context.Context, window time.Duration) (*core.Dataset, error) {
	ds := &core.Dataset{Scale: 1, WindowStart: time.Now().Add(-window), WindowEnd: time.Now()}
	listings, err := c.ListIdentifiers(ctx)
	if err != nil {
		return nil, err
	}
	for _, listing := range listings {
		did := identity.DID(listing.DID)
		u := core.User{DID: listing.DID, DIDMethod: string(did.Method())}
		if doc, err := c.FetchDIDDocument(did); err == nil {
			u.Handle = string(doc.Handle())
			u.PDS = doc.PDSEndpoint()
		}
		if r, err := c.FetchRepo(ctx, did); err == nil {
			if recs, err := r.List(lexicon.Post); err == nil {
				u.Posts = len(recs)
				for _, rec := range recs {
					created, _ := lexicon.CreatedAt(rec.Value)
					ds.Posts = append(ds.Posts, core.Post{
						URI:       rec.URI.String(),
						AuthorIdx: len(ds.Users),
						Lang:      firstLang(rec.Value),
						CreatedAt: created,
					})
				}
			}
			if recs, err := r.List(lexicon.Like); err == nil {
				u.Likes = len(recs)
			}
			if recs, err := r.List(lexicon.Follow); err == nil {
				u.Following = len(recs)
			}
		}
		ds.Users = append(ds.Users, u)
	}
	labels, err := c.CollectLabels(1<<20, 2*time.Second)
	if err != nil {
		return nil, err
	}
	for _, l := range labels {
		kind := core.SubjectAccount
		if strings.HasPrefix(l.URI, "at://") {
			kind = core.SubjectPost
		}
		applied, _ := events.ParseTime(l.CTS)
		ds.Labels = append(ds.Labels, core.Label{
			Src: l.Src, URI: l.URI, Val: l.Val, Neg: l.Neg, Kind: kind, Applied: applied,
		})
	}
	return ds, nil
}

func firstLang(rec map[string]any) string {
	langs := lexicon.PostLangs(rec)
	if len(langs) > 0 {
		return langs[0]
	}
	return ""
}
