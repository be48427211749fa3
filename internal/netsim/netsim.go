// Package netsim wires a complete Bluesky deployment on loopback: a
// PLC directory, a DNS server for handle proofs, a WHOIS server, one
// or more PDSes, a Relay with its Firehose, an AppView, labeler
// services, and feed generator engines — every component of §2,
// reachable over real sockets, so the measurement pipeline can crawl
// it exactly the way the paper crawled the production network.
package netsim

import (
	"fmt"
	"strings"
	"time"

	"blueskies/internal/appview"
	"blueskies/internal/dnssim"
	"blueskies/internal/feedgen"
	"blueskies/internal/identity"
	"blueskies/internal/labeler"
	"blueskies/internal/pds"
	"blueskies/internal/plc"
	"blueskies/internal/relay"
	"blueskies/internal/whois"
)

// Network is one running deployment.
type Network struct {
	Clock func() time.Time

	PLCDir    *plc.Directory
	PLC       *plc.Server
	Zone      *dnssim.Zone
	DNS       *dnssim.Server
	WhoisDB   *whois.DB
	Whois     *whois.Server
	PDSes     []*pds.Server
	Relay     *relay.Relay
	AppView   *appview.View
	Labelers  []*labeler.Service
	FeedHosts []*feedgen.Engine
}

// Config sizes the deployment.
type Config struct {
	// PDSCount is the number of personal data servers (≥1).
	PDSCount int
	// Clock supplies timestamps; time.Now if nil.
	Clock func() time.Time
}

// Start boots a network.
func Start(cfg Config) (*Network, error) {
	if cfg.PDSCount < 1 {
		cfg.PDSCount = 1
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	n := &Network{Clock: clock}

	n.PLCDir = plc.NewDirectory()
	var err error
	if n.PLC, err = plc.NewServer(n.PLCDir); err != nil {
		return nil, err
	}
	n.Zone = dnssim.NewZone()
	if n.DNS, err = dnssim.NewServer(n.Zone); err != nil {
		n.Close()
		return nil, err
	}
	n.WhoisDB = whois.NewDB()
	if n.Whois, err = whois.NewServer(n.WhoisDB); err != nil {
		n.Close()
		return nil, err
	}
	for i := 0; i < cfg.PDSCount; i++ {
		p := pds.New(pds.Config{
			Hostname: fmt.Sprintf("pds%d.sim", i),
			PLCURL:   n.PLC.URL(),
			Clock:    clock,
		})
		if err := p.Start(); err != nil {
			n.Close()
			return nil, err
		}
		n.PDSes = append(n.PDSes, p)
	}
	n.Relay = relay.New(relay.Config{Clock: clock})
	if err := n.Relay.Start(); err != nil {
		n.Close()
		return nil, err
	}
	for _, p := range n.PDSes {
		if err := n.Relay.AddPDS(p.URL()); err != nil {
			n.Close()
			return nil, err
		}
	}
	n.AppView = appview.New()
	if err := n.AppView.Start(); err != nil {
		n.Close()
		return nil, err
	}
	if err := n.AppView.ConsumeFirehose(n.Relay.URL(), 0); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

// Close shuts everything down.
func (n *Network) Close() {
	for _, e := range n.FeedHosts {
		_ = e.Close()
	}
	for _, l := range n.Labelers {
		_ = l.Close()
	}
	if n.AppView != nil {
		_ = n.AppView.Close()
	}
	if n.Relay != nil {
		_ = n.Relay.Close()
	}
	for _, p := range n.PDSes {
		_ = p.Close()
	}
	if n.Whois != nil {
		_ = n.Whois.Close()
	}
	if n.DNS != nil {
		_ = n.DNS.Close()
	}
	if n.PLC != nil {
		_ = n.PLC.Close()
	}
}

// CreateUser provisions an account on the i-th PDS and installs its
// DNS ownership proof when the handle is self-managed.
func (n *Network) CreateUser(pdsIdx int, handle identity.Handle) (*pds.Account, error) {
	acct, err := n.PDSes[pdsIdx%len(n.PDSes)].CreateAccount(handle)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(string(handle), ".bsky.social") {
		n.Zone.SetTXT(handle.TXTRecordName(), "did="+string(acct.DID))
	}
	return acct, nil
}

// AddLabeler provisions a labeler account, publishes its service
// record, starts its label stream, registers the endpoint in the PLC
// directory, and subscribes the AppView to it.
func (n *Network) AddLabeler(handle identity.Handle, values []string) (*labeler.Service, *pds.Account, error) {
	acct, err := n.CreateUser(0, handle)
	if err != nil {
		return nil, nil, err
	}
	svc := labeler.New(labeler.Config{DID: acct.DID, Values: values, Clock: n.Clock})
	if err := svc.Start(); err != nil {
		return nil, nil, err
	}
	vals := make([]lexLabelDef, len(values))
	for i, v := range values {
		vals[i] = lexLabelDef{Value: v, Severity: "inform", Blurs: "content"}
	}
	if err := publishLabelerRecord(n.PDSes[0], acct, vals, n.Clock()); err != nil {
		svc.Close()
		return nil, nil, err
	}
	n.Labelers = append(n.Labelers, svc)
	if err := n.AppView.ConsumeLabeler(svc.URL()); err != nil {
		return nil, nil, err
	}
	return svc, acct, nil
}

// AddFeedHost starts a feed generator engine for the given FGaaS
// platform (nil platform = self-hosted) and wires it into the AppView
// under a did:web service identity.
func (n *Network) AddFeedHost(name string, platform *feedgen.Platform) (*feedgen.Engine, string, error) {
	engine := feedgen.NewEngine(feedgen.EngineConfig{Name: name, Platform: platform, Clock: n.Clock})
	if err := engine.Start(); err != nil {
		return nil, "", err
	}
	serviceDID := "did:web:" + strings.ToLower(name) + ".sim"
	n.AppView.RegisterFeedServiceURL(serviceDID, engine.URL())
	n.FeedHosts = append(n.FeedHosts, engine)
	return engine, serviceDID, nil
}

// PublishFeed declares a feed generator record in the creator's repo
// and registers the feed on the engine.
func (n *Network) PublishFeed(acct *pds.Account, engine *feedgen.Engine, serviceDID, rkey string, cfg feedgen.Config, displayName, description string) (string, error) {
	uri := "at://" + string(acct.DID) + "/app.bsky.feed.generator/" + rkey
	cfg.URI = uri
	cfg.DisplayName = displayName
	cfg.Description = description
	if err := engine.AddFeed(cfg); err != nil {
		return "", err
	}
	rec := map[string]any{
		"$type":       "app.bsky.feed.generator",
		"did":         serviceDID,
		"displayName": displayName,
		"description": description,
		"createdAt":   n.Clock().UTC().Format(time.RFC3339),
	}
	if _, err := n.PDSes[0].CreateRecord(acct.DID, "app.bsky.feed.generator", rkey, rec); err != nil {
		return "", err
	}
	return uri, nil
}

// RegisterDomain records a domain registration in the WHOIS database.
func (n *Network) RegisterDomain(domain string, reg whois.Registrar, cctld bool) {
	n.WhoisDB.Put(whois.Registration{
		Domain: domain, Registrar: reg, CCTLDPolicy: cctld, Created: n.Clock(),
	})
}

type lexLabelDef struct {
	Value    string `json:"identifier"`
	Severity string `json:"severity"`
	Blurs    string `json:"blurs"`
}

func publishLabelerRecord(p *pds.Server, acct *pds.Account, defs []lexLabelDef, now time.Time) error {
	vals := make([]any, len(defs))
	for i, d := range defs {
		vals[i] = d.Value
	}
	rec := map[string]any{
		"$type":     "app.bsky.labeler.service",
		"policies":  map[string]any{"labelValues": vals},
		"createdAt": now.UTC().Format(time.RFC3339),
	}
	_, err := p.CreateRecord(acct.DID, "app.bsky.labeler.service", "self", rec)
	return err
}

// WaitForAppView polls until the AppView has indexed at least posts
// posts, or fails after timeout.
func (n *Network) WaitForAppView(posts int, timeout time.Duration) error {
	if waitUntil(timeout, func() bool { return n.AppView.PostCount() >= posts }) {
		return nil
	}
	return fmt.Errorf("netsim: appview has %d posts after %v", n.AppView.PostCount(), timeout)
}

// WaitForRelayRepos polls until the relay's listRepos enumerates at
// least repos repositories — every account whose first commit has been
// crawled off its PDS stream — or fails after timeout.
func (n *Network) WaitForRelayRepos(repos int, timeout time.Duration) error {
	listed := func() int {
		rs, _ := n.Relay.ListRepos("", 0)
		return len(rs)
	}
	if waitUntil(timeout, func() bool { return listed() >= repos }) {
		return nil
	}
	return fmt.Errorf("netsim: relay lists %d repos after %v", listed(), timeout)
}

// waitUntil polls cond every few milliseconds until it holds (true) or
// timeout elapses (false).
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}
