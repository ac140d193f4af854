package experiments

import (
	"fmt"

	"roamsim/internal/airalo"
	"roamsim/internal/fleet"
	"roamsim/internal/geo"
	"roamsim/internal/ipx"
	"roamsim/internal/measure"
	"roamsim/internal/mno"
	"roamsim/internal/netsim"
	"roamsim/internal/report"
	"roamsim/internal/rng"
	"roamsim/internal/signaling"
	"roamsim/internal/stats"
	"roamsim/internal/voip"
)

// FutureVoIP implements the paper's named future work: jitter and
// packet-loss measurement for real-time services, scored with the
// ITU-T E-model. It shows that HR roaming pushes calls out of the
// "satisfied" band purely through mouth-to-ear delay.
func (r *Runner) FutureVoIP() (*report.Table, error) {
	src := rng.New(r.Cfg.Seed).Fork("voip")
	t := &report.Table{
		Title:   "Future work: VoIP quality per configuration (E-model, G.711)",
		Headers: []string{"Country", "Config", "One-way (ms)", "Jitter (ms)", "Loss %", "R", "MOS", "Verdict"},
	}
	e := voip.EModel{}
	for _, iso := range fleet.DeviceCountries {
		d := r.W.Deployments[iso]
		for _, kind := range kindsFor(d) {
			s, err := attach(d, kind, src)
			if err != nil {
				return nil, err
			}
			probe, err := measure.VoIPProbe(s, 200, src)
			if err != nil {
				return nil, err
			}
			rf, mos := e.Score(probe)
			label := "SIM"
			if kind == mno.ESIM {
				label = configLabel(kind, s.Arch)
			}
			t.AddRow(iso, label,
				fmt.Sprintf("%.0f", probe.OneWayMs),
				fmt.Sprintf("%.1f", probe.JitterMs),
				fmt.Sprintf("%.1f", probe.LossPercent),
				fmt.Sprintf("%.0f", rf),
				fmt.Sprintf("%.2f", mos),
				voip.Grade(rf))
		}
	}
	return t, nil
}

// AblationLBO quantifies the paper's concluding suggestion — "realizing
// Local Breakouts where traffic is directly handled by v-MNOs" — by
// comparing each device-campaign eSIM's measured latency against a
// hypothetical LBO session on the same v-MNO (roamer policy caps kept).
func (r *Runner) AblationLBO() (*report.Table, error) {
	src := rng.New(r.Cfg.Seed).Fork("abl-lbo")
	t := &report.Table{
		Title:   "Ablation: today's eSIM vs hypothetical Local Breakout (LBO)",
		Headers: []string{"Country", "Arch today", "RTT today (ms)", "RTT w/ LBO (ms)", "Saved", "Down today", "Down w/ LBO"},
	}
	for _, iso := range fleet.DeviceCountries {
		d := r.W.Deployments[iso]
		var today, lbo, downToday, downLBO []float64
		var arch ipx.Architecture
		for i := 0; i < 25; i++ {
			s, err := d.AttachESIM(src)
			if err != nil {
				return nil, err
			}
			arch = s.Arch
			rtt, err := measure.Ping(s, "Google", src)
			if err != nil {
				return nil, err
			}
			today = append(today, rtt)
			st, err := measure.Speedtest(s, src)
			if err != nil {
				return nil, err
			}
			downToday = append(downToday, st.DownMbps)

			ls, err := d.AttachHypotheticalLBO(src)
			if err != nil {
				return nil, err
			}
			lrtt, err := measure.Ping(ls, "Google", src)
			if err != nil {
				return nil, err
			}
			lbo = append(lbo, lrtt)
			lst, err := measure.Speedtest(ls, src)
			if err != nil {
				return nil, err
			}
			downLBO = append(downLBO, lst.DownMbps)
		}
		mt, ml := stats.Median(today), stats.Median(lbo)
		t.AddRow(iso, string(arch),
			fmt.Sprintf("%.0f", mt), fmt.Sprintf("%.0f", ml),
			fmt.Sprintf("%.0f%%", (1-ml/mt)*100),
			fmt.Sprintf("%.1f", stats.Median(downToday)),
			fmt.Sprintf("%.1f", stats.Median(downLBO)))
	}
	return t, nil
}

// DiscussionJurisdiction reproduces the Discussion's QoE implication:
// for every eSIM, which country's digital jurisdiction the user's
// traffic is subject to — the PGW country for content policies and the
// resolver country for DNS — versus where the user actually is.
func (r *Runner) DiscussionJurisdiction() (*report.Table, error) {
	src := rng.New(r.Cfg.Seed).Fork("jurisdiction")
	t := &report.Table{
		Title:   "Discussion: digital jurisdiction of eSIM traffic",
		Headers: []string{"Country", "Arch", "Egress country", "DNS country", "Foreign jurisdiction"},
	}
	var foreign, total int
	for _, key := range r.W.DeploymentKeys(false, false) {
		d := r.W.Deployments[key]
		s, err := d.AttachESIM(src)
		if err != nil {
			return nil, err
		}
		var dnsCountry string
		if s.DNS.Resolver != nil {
			dnsCountry = s.DNS.Resolver.Country
		} else {
			eff, err := s.DNS.Effective(s.Site.Loc)
			if err != nil {
				return nil, err
			}
			dnsCountry = eff.Country
		}
		total++
		mismatch := "no"
		if s.Site.Country != key {
			foreign++
			mismatch = "YES"
		}
		t.AddRow(key, string(s.Arch), s.Site.Country, dnsCountry, mismatch)
	}
	t.AddRow("SUMMARY", "", "", "",
		fmt.Sprintf("%d/%d eSIMs egress under a foreign jurisdiction", foreign, total))
	return t, nil
}

// Confounders quantifies the time-of-day effect the paper's Discussion
// lists among its unmodeled confounders: the same eSIM measured across
// the day under a diurnal load model. The busy-hour penalty is of the
// same order as the IHBO architecture penalty — which is exactly why
// the paper warns against reading its per-country numbers as absolute.
//
// The load model is set on a world of its own, built from the same seed,
// so artifacts measuring r.W at the same time never see the load.
func (r *Runner) Confounders() (*report.Table, error) {
	w, err := airalo.Build(r.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	src := rng.New(r.Cfg.Seed).Fork("confounders")
	t := &report.Table{
		Title:   "Confounder: time-of-day load vs eSIM RTT and downlink (Germany, IHBO)",
		Headers: []string{"Hour", "Load", "RTT median (ms)", "Down median (Mbps)"},
	}
	hour := 0.0
	model := netsim.Diurnal(20, 1, func() float64 { return hour })
	w.Net.SetLoadModel(model)
	d := w.Deployments["DEU"]
	for _, h := range []float64{4, 8, 12, 16, 20} {
		hour = h
		var rtts, downs []float64
		for i := 0; i < 20; i++ {
			s, err := d.AttachESIM(src)
			if err != nil {
				return nil, err
			}
			rtt, err := measure.Ping(s, "Google", src)
			if err != nil {
				return nil, err
			}
			rtts = append(rtts, rtt)
			st, err := measure.Speedtest(s, src)
			if err != nil {
				return nil, err
			}
			downs = append(downs, st.DownMbps)
		}
		t.AddRow(fmt.Sprintf("%02.0f:00", h), fmt.Sprintf("%.2f", model()),
			fmt.Sprintf("%.0f", stats.Median(rtts)), fmt.Sprintf("%.1f", stats.Median(downs)))
	}
	return t, nil
}

// SignalingBreakdown explains Figure 5b mechanistically: attach
// procedure durations and expected daily control-message counts for a
// native subscriber, a plain inbound roamer, and an Airalo (touristy
// roamer) user. The roamer's S6a legs cross the IPX to the home HSS.
func (r *Runner) SignalingBreakdown() (*report.Table, error) {
	src := rng.New(r.Cfg.Seed).Fork("signaling")
	t := &report.Table{
		Title:   "Signalling mechanism behind Figure 5b (UK v-MNO)",
		Headers: []string{"Subscriber", "Attach msgs", "Attach time (ms)", "Daily msgs (expected)"},
	}
	// The UK partner v-MNO core; Play's HSS is in Poland across the IPX.
	london := geo.MustCity("London")
	warsaw := geo.MustCity("Warsaw")
	ipxRTT := 2 * geo.PropagationDelayMs(london.Loc, warsaw.Loc) * 4 // Diameter agents + IPX detours
	rows := []struct {
		label   string
		cfg     signaling.Config
		profile signaling.DayProfile
	}{
		{"native (UK)", signaling.Config{LocalRTTms: 18, HomeHSS: "UK-HSS"},
			signaling.DefaultDayProfile(false, false)},
		{"Play roamer", signaling.Config{Roaming: true, LocalRTTms: 18, IPXRTTms: ipxRTT, HomeHSS: "Play-HSS"},
			signaling.DefaultDayProfile(true, false)},
		{"Airalo on Play", signaling.Config{Roaming: true, LocalRTTms: 18, IPXRTTms: ipxRTT, HomeHSS: "Play-HSS"},
			signaling.DefaultDayProfile(true, true)},
	}
	for _, row := range rows {
		var dur float64
		var msgs int
		const n = 30
		for i := 0; i < n; i++ {
			tr, err := signaling.Attach(row.cfg, src)
			if err != nil {
				return nil, err
			}
			dur += tr.DurationMs
			msgs = tr.Messages()
		}
		t.AddRow(row.label, msgs, fmt.Sprintf("%.0f", dur/n),
			fmt.Sprintf("%.0f", signaling.ExpectedDailyMessages(row.profile)))
	}
	return t, nil
}
