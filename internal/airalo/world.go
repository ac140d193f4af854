package airalo

import (
	"fmt"
	"sort"

	"roamsim/internal/cdnsim"
	"roamsim/internal/dnssim"
	"roamsim/internal/geo"
	"roamsim/internal/gtp"
	"roamsim/internal/inet"
	"roamsim/internal/ipaddr"
	"roamsim/internal/ipreg"
	"roamsim/internal/ipx"
	"roamsim/internal/mno"
	"roamsim/internal/netsim"
	"roamsim/internal/rng"
)

// World is the fully wired simulation of the Airalo ecosystem.
type World struct {
	Net *netsim.Network
	Reg *ipreg.Registry
	Rnd *rng.Source
	GTP *gtp.Manager

	Operators map[string]*mno.Operator
	Providers map[string]*ipx.PGWProvider
	SPs       map[string]*inet.ServiceProvider
	CDNs      map[string]*cdnsim.Provider
	GoogleDNS *dnssim.AnycastGroup

	// Deployments by key (ISO3, or "EMNIFY" for the validation setup).
	Deployments map[string]*Deployment

	builtProviders map[string]*builtProvider
	pgwNodes       map[ipaddr.Addr]netsim.NodeID
	cgnatNodes     map[string]netsim.NodeID // provider|city -> CG-NAT node
	resolverNodes  map[ipaddr.Addr]netsim.NodeID
	opResolvers    map[string]dnssim.Resolver // operator name -> resolver
	opNetworks     map[string]*opNetwork      // operator name -> local network
	transitAllocs  map[string]*ipaddr.Allocator
	inetB          *inet.Builder
}

// Deployment is one visited country's measurement setup.
type Deployment struct {
	Key     string
	Spec    DeploymentSpec
	Country geo.Country
	Loc     geo.Point
	VMNO    *mno.Operator
	BMNO    *mno.Operator

	ESIMProfile *mno.Profile
	SIMProfile  *mno.Profile

	world       *World
	ueESIM      netsim.NodeID
	ueSIM       netsim.NodeID
	sgw         netsim.NodeID
	esimOptions []ipx.AgreementOption
	esimArch    ipx.Architecture
	// esimPublicIP is the session public IP per provider|city key.
	esimPublicIP map[string]ipaddr.Addr
	simProvider  *ipx.PGWProvider
	simPublicIP  ipaddr.Addr
}

// Session is one attachment of a profile to the visited network with a
// resolved breakout — the unit every measurement runs against.
type Session struct {
	D        *Deployment
	Kind     mno.SIMKind
	Profile  *mno.Profile
	Arch     ipx.Architecture
	Provider *ipx.PGWProvider
	Site     ipx.PGWSite
	PGWAddr  ipaddr.Addr
	PGWNode  netsim.NodeID
	UE       netsim.NodeID
	PublicIP ipaddr.Addr
	Tunnel   *gtp.Tunnel // nil for native / physical-SIM sessions
	DNS      dnssim.Config
	Radio    mno.RadioConditions

	DownCapMbps, UpCapMbps float64
	YouTubeCapMbps         float64
	CDNHitRate             float64
}

// operatorNetSpec configures a local operator network (physical SIM or
// native eSIM issuer).
type operatorNetSpec struct {
	PGWs map[string]int // city -> number of PGW addresses
	// TransitVia routes public peering through these transit operators.
	TransitVia []string
	// PeeringPenaltyMs applies on the (last transit|cgnat) -> SP links.
	PeeringPenaltyMs float64
}

var operatorNets = map[string]operatorNetSpec{
	"Magti":            {PGWs: map[string]int{"Tbilisi": 2}, PeeringPenaltyMs: 12},
	"O2 Germany":       {PGWs: map[string]int{"Berlin": 2}, PeeringPenaltyMs: 4},
	"LG U+":            {PGWs: map[string]int{"Seoul": 4}, PeeringPenaltyMs: 2},
	"U+ UMobile":       {PGWs: map[string]int{"Seoul": 4, "Goyang": 1, "Cheonan": 1}, PeeringPenaltyMs: 2.5},
	"Jazz":             {PGWs: map[string]int{"Islamabad": 2}, TransitVia: []string{"LINKdotNET Telecom", "Transworld Associates"}, PeeringPenaltyMs: 6},
	"Ooredoo Qatar":    {PGWs: map[string]int{"Doha": 2}, PeeringPenaltyMs: 18},
	"STC":              {PGWs: map[string]int{"Riyadh": 2}, PeeringPenaltyMs: 16},
	"Movistar":         {PGWs: map[string]int{"Madrid": 2}, TransitVia: []string{"Telefonica Global Solution"}, PeeringPenaltyMs: 4},
	"dtac":             {PGWs: map[string]int{"Bangkok": 4}, PeeringPenaltyMs: 8},
	"Etisalat":         {PGWs: map[string]int{"Dubai": 2}, PeeringPenaltyMs: 14},
	"UK Partner MNO":   {PGWs: map[string]int{"London": 2}, PeeringPenaltyMs: 2},
	"Ooredoo Maldives": {PGWs: map[string]int{"Male": 2}, PeeringPenaltyMs: 10},
}

// providerTransit routes PGW-provider peering through transit carriers
// (Singtel's HR egress crosses its global arm, Section 4.3.3).
var providerTransit = map[string][]string{
	"Singtel": {"Singtel Global"},
}

// Build constructs the world deterministically from a seed.
func Build(seed int64) (*World, error) {
	w := &World{
		Net:           netsim.New(),
		Reg:           ipreg.NewRegistry(),
		Rnd:           rng.New(seed),
		Operators:     map[string]*mno.Operator{},
		Providers:     map[string]*ipx.PGWProvider{},
		SPs:           map[string]*inet.ServiceProvider{},
		CDNs:          map[string]*cdnsim.Provider{},
		Deployments:   map[string]*Deployment{},
		pgwNodes:      map[ipaddr.Addr]netsim.NodeID{},
		cgnatNodes:    map[string]netsim.NodeID{},
		resolverNodes: map[ipaddr.Addr]netsim.NodeID{},
		opResolvers:   map[string]dnssim.Resolver{},
	}
	w.GTP = gtp.NewManager(w.Net)

	ops, err := buildOperators(w.Reg)
	if err != nil {
		return nil, err
	}
	w.Operators = ops
	for _, t := range transitSpecs {
		w.Net.SetTransitAS(t.ASN)
	}

	provs, err := buildProviders(w.Reg)
	if err != nil {
		return nil, err
	}
	w.builtProviders = provs
	for name, bp := range provs {
		w.Providers[name] = bp.Provider
	}

	w.inetB = inet.NewBuilder(w.Net, w.Reg, w.Rnd.Fork("inet"))
	if err := w.buildServiceProviders(); err != nil {
		return nil, err
	}
	// Google DNS must exist before CG-NATs are peered with the SPs.
	if err := w.buildGoogleDNS(); err != nil {
		return nil, err
	}
	if err := w.buildPGWInfra(); err != nil {
		return nil, err
	}
	if err := w.buildOperatorNetworks(); err != nil {
		return nil, err
	}
	for _, spec := range deploymentSpecs {
		if err := w.buildDeployment(spec, spec.ISO3); err != nil {
			return nil, fmt.Errorf("airalo: deployment %s: %w", spec.ISO3, err)
		}
	}
	if err := w.buildDeployment(emnifySpec, "EMNIFY"); err != nil {
		return nil, fmt.Errorf("airalo: emnify deployment: %w", err)
	}
	// End of the build phase: from here the topology is immutable and
	// every query — Attach*, PathTo, routing, the measurement tools — is
	// safe for concurrent use, provided each goroutine gets its own
	// rng.Source (see internal/rng). GTP state and the IP registry have
	// their own locks. Net.SetLoadModel stays legal after Freeze but
	// changes what every concurrent RTT and throughput query measures,
	// so a world shared between goroutines must not have it set; build a
	// world of one's own to measure under load.
	w.Net.Freeze()
	return w, nil
}

// emnifySpec is the Section 4.3.1 validation deployment: an emnify eSIM
// in London on O2 UK, breaking out at AWS Dublin — ground truth the
// operator confirmed to the authors.
var emnifySpec = DeploymentSpec{
	ISO3: "GBR", City: "London", VMNOName: "O2 UK", BMNOName: "emnify",
	Breakouts:       []breakoutRef{{"Amazon.com, Inc.", "Dublin", 1}},
	VMNOPrivateHops: 2,
	TunnelPenaltyMs: map[string]float64{"Amazon.com, Inc.": 4},
	RadioESIM:       mno.RadioConditions{FiveGShare: 0.6, MeanCQI: 11},
	ESIMDown:        18, ESIMUp: 8, LossESIM: 0.003,
}

// globalCities hosts the big SPs' edges.
var globalCities = []string{
	"Amsterdam", "Frankfurt", "London", "Paris", "Madrid", "Milan",
	"Stockholm", "Vienna", "Warsaw", "Singapore", "Tokyo", "Hong Kong",
	"Mumbai", "Dubai", "Doha", "Riyadh", "Istanbul", "Cairo", "Nairobi",
	"Ashburn", "Dallas", "Miami", "Los Angeles", "Seoul", "Bangkok",
	"Sao Paulo", "Sydney",
}

// ooklaExtraCities adds measurement-country capitals so "nearest Ookla
// server" exists everywhere the campaigns ran.
var ooklaExtraCities = []string{
	"Tbilisi", "Islamabad", "Male", "Kuala Lumpur", "Tashkent",
	"Chisinau", "Baku", "Helsinki", "Berlin", "Rome", "Beijing",
	"New Jersey", "Dublin", "Lille",
}

func (w *World) buildServiceProviders() error {
	specs := []inet.SPSpec{
		{Name: "Google", ASN: 15169, Kind: ipreg.KindContent,
			Prefix: ipaddr.MustParsePrefix("142.250.0.0/16"), EdgeCities: globalCities,
			MinInternalHops: 2, MaxInternalHops: 6},
		{Name: "Facebook", ASN: 32934, Kind: ipreg.KindContent,
			Prefix: ipaddr.MustParsePrefix("157.240.0.0/16"),
			EdgeCities: []string{"Amsterdam", "Frankfurt", "London", "Paris", "Madrid",
				"Warsaw", "Singapore", "Tokyo", "Hong Kong", "Mumbai", "Dubai", "Doha",
				"Istanbul", "Nairobi", "Ashburn", "Dallas", "Seoul", "Bangkok"},
			MinInternalHops: 1, MaxInternalHops: 7},
		{Name: "Ookla", ASN: 32035, Kind: ipreg.KindContent,
			Prefix:          ipaddr.MustParsePrefix("104.131.0.0/16"),
			EdgeCities:      append(append([]string(nil), globalCities...), ooklaExtraCities...),
			MinInternalHops: 1, MaxInternalHops: 2},
		{Name: "Cloudflare", ASN: 13335, Kind: ipreg.KindContent,
			Prefix: ipaddr.MustParsePrefix("104.16.0.0/16"), EdgeCities: globalCities,
			MinInternalHops: 1, MaxInternalHops: 3},
		{Name: "Google CDN", ASN: 396982, Kind: ipreg.KindContent,
			Prefix: ipaddr.MustParsePrefix("34.104.0.0/16"),
			EdgeCities: []string{"Amsterdam", "Frankfurt", "London", "Madrid", "Warsaw",
				"Singapore", "Tokyo", "Mumbai", "Dubai", "Istanbul", "Ashburn", "Dallas",
				"Seoul", "Bangkok"},
			MinInternalHops: 2, MaxInternalHops: 4},
		{Name: "jQuery CDN", ASN: 33438, Kind: ipreg.KindContent,
			Prefix: ipaddr.MustParsePrefix("205.185.0.0/16"),
			EdgeCities: []string{"Amsterdam", "London", "Frankfurt", "Singapore",
				"Tokyo", "Dubai", "Ashburn", "Dallas", "Seoul", "Bangkok"},
			MinInternalHops: 1, MaxInternalHops: 3},
		{Name: "jsDelivr", ASN: 30081, Kind: ipreg.KindContent,
			Prefix: ipaddr.MustParsePrefix("151.101.0.0/16"),
			EdgeCities: []string{"Amsterdam", "London", "Madrid", "Frankfurt",
				"Singapore", "Tokyo", "Mumbai", "Dubai", "Ashburn", "Seoul", "Bangkok"},
			MinInternalHops: 1, MaxInternalHops: 3},
		{Name: "Netflix", ASN: 2906, Kind: ipreg.KindContent,
			Prefix: ipaddr.MustParsePrefix("45.57.0.0/16"),
			EdgeCities: []string{"Amsterdam", "London", "Frankfurt", "Madrid", "Paris",
				"Singapore", "Tokyo", "Mumbai", "Dubai", "Istanbul", "Ashburn", "Dallas",
				"Seoul", "Bangkok", "Nairobi", "Sao Paulo"},
			MinInternalHops: 1, MaxInternalHops: 3},
		{Name: "Microsoft Ajax", ASN: 8075, Kind: ipreg.KindContent,
			Prefix: ipaddr.MustParsePrefix("13.107.0.0/16"),
			EdgeCities: []string{"Amsterdam", "London", "Frankfurt", "Madrid",
				"Singapore", "Tokyo", "Dubai", "Ashburn", "Dallas", "Seoul", "Bangkok"},
			MinInternalHops: 2, MaxInternalHops: 4},
	}
	for _, spec := range specs {
		sp, err := w.inetB.AddServiceProvider(spec)
		if err != nil {
			return err
		}
		w.SPs[spec.Name] = sp
	}
	hit := map[string]float64{
		"Cloudflare": 0.96, "Google CDN": 0.95, "jQuery CDN": 0.93,
		"jsDelivr": 0.94, "Microsoft Ajax": 0.93,
	}
	for _, name := range cdnsim.ProviderNames {
		w.CDNs[name] = &cdnsim.Provider{
			SP: w.SPs[name], HitRate: hit[name], OriginPenaltyMedianMs: 140,
		}
	}
	return nil
}

// buildPGWInfra creates PGW and CG-NAT nodes for every provider site and
// peers the CG-NATs with the service providers.
func (w *World) buildPGWInfra() error {
	names := make([]string, 0, len(w.builtProviders))
	for name := range w.builtProviders {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bp := w.builtProviders[name]
		p := bp.Provider
		for _, site := range p.Sites {
			cgAddr, err := bp.NATAddr(site.City)
			if err != nil {
				return err
			}
			cgReply := 1.0
			if p.CGNATSilent {
				cgReply = -1
			}
			cg := w.Net.AddNode(netsim.Node{
				Name: fmt.Sprintf("cgnat-%s-%s", p.Name, site.City),
				Kind: netsim.KindCGNAT, Loc: site.Loc, Addr: cgAddr,
				ASN: p.ASN, ICMPReplyProb: cgReply,
			})
			w.cgnatNodes[providerSiteKey(p.Name, site.City)] = cg
			for _, addr := range site.Addrs {
				pgw := w.Net.AddNode(netsim.Node{
					Name: fmt.Sprintf("pgw-%s-%s-%s", p.Name, site.City, addr),
					Kind: netsim.KindPGW, Loc: site.Loc, Addr: addr, ASN: p.ASN,
				})
				w.pgwNodes[addr] = pgw
				w.Net.Connect(pgw, cg, netsim.Link{DelayMs: 0.3, BandwidthMbps: 100000})
			}
			w.peerEgress(cg, p.Name, site.Loc, 0)
		}
	}
	return nil
}

// peerEgress connects an egress node (CG-NAT) to the service providers,
// optionally via the provider's transit carriers.
func (w *World) peerEgress(egress netsim.NodeID, providerName string, loc geo.Point, penaltyMs float64) {
	from := egress
	for i, tName := range providerTransit[providerName] {
		t := w.Operators[tName]
		tn := w.Net.AddNode(netsim.Node{
			Name: fmt.Sprintf("transit-%s-%s-%d", providerName, tName, i),
			Kind: netsim.KindRouter, Loc: loc,
			Addr: w.transitAddr(tName), ASN: t.ASN,
		})
		w.Net.Connect(from, tn, netsim.Link{DelayMs: 0.4, BandwidthMbps: 100000})
		from = tn
	}
	link := netsim.Link{PeeringPenaltyMs: penaltyMs, BandwidthMbps: 50000}
	spNames := make([]string, 0, len(w.SPs))
	for n := range w.SPs {
		spNames = append(spNames, n)
	}
	sort.Strings(spNames)
	for _, n := range spNames {
		w.inetB.PeerWith(from, w.SPs[n], 2, link)
	}
}

// transitAlloc hands out addresses inside transit operators' prefixes.
var transitPrefixByName = map[string]string{}

func init() {
	for _, t := range transitSpecs {
		transitPrefixByName[t.Name] = t.Prefix
	}
}

func (w *World) transitAddr(opName string) ipaddr.Addr {
	// Each call allocates the next address of the operator's prefix; the
	// allocator is memoized on the world via a tiny map.
	if w.transitAllocs == nil {
		w.transitAllocs = map[string]*ipaddr.Allocator{}
	}
	al, ok := w.transitAllocs[opName]
	if !ok {
		al = ipaddr.NewAllocator(ipaddr.MustParsePrefix(transitPrefixByName[opName]))
		w.transitAllocs[opName] = al
	}
	return al.MustNextAddr()
}

func providerSiteKey(provider, city string) string { return provider + "|" + city }
