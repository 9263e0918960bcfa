//! The seven benchmark profiles of Fig. 6, plus two extra workload
//! families with deliberately different statistical shapes.

use crate::{GeneratedWorkload, WorkloadParams};

/// A named, calibrated workload preset: one of the paper's seven
/// benchmark web applications (Fig. 6), or one of the two extra
/// families ([`BenchmarkProfile::extras`]) added to probe event-driven
/// shapes the paper's browsing sessions do not cover.
///
/// Each profile stores its session's event and instruction counts (the
/// paper's reported numbers for the web profiles, our calibration
/// targets for the extras); the generated workload preserves the
/// implied *mean event length* (capped so a scaled run still contains
/// enough events for the event queue to be meaningful) and a per-site
/// flavour: code footprint, data intensity, dispatch density, and
/// burstiness.
///
/// # Examples
///
/// ```
/// use esp_workload::BenchmarkProfile;
///
/// let all = BenchmarkProfile::all();
/// assert_eq!(all.len(), 7);
/// assert_eq!(BenchmarkProfile::all_families().len(), 9);
/// let amazon = BenchmarkProfile::by_name("amazon").unwrap();
/// assert_eq!(amazon.paper_events(), 7_787);
/// let iot = BenchmarkProfile::by_name("iotfsm").unwrap();
/// assert!(iot.params().code_footprint_bytes < amazon.params().code_footprint_bytes);
/// ```
#[derive(Clone, Debug)]
pub struct BenchmarkProfile {
    name: &'static str,
    description: &'static str,
    paper_events: u64,
    paper_minstr: u64,
    params: WorkloadParams,
}

/// Minimum number of events a scaled run must contain; mean event length
/// is capped at `target / MIN_EVENTS` to guarantee it.
const MIN_EVENTS: u64 = 24;

impl BenchmarkProfile {
    fn new(
        name: &'static str,
        description: &'static str,
        paper_events: u64,
        paper_minstr: u64,
        tune: impl FnOnce(&mut WorkloadParams),
    ) -> Self {
        let mut params = WorkloadParams::web_default();
        params.mean_event_len = paper_minstr * 1_000_000 / paper_events;
        tune(&mut params);
        BenchmarkProfile { name, description, paper_events, paper_minstr, params }
    }

    /// amazon.com — e-commerce: search for headphones, browse results.
    pub fn amazon() -> Self {
        Self::new("amazon", "e-commerce", 7_787, 434, |p| {
            p.code_footprint_bytes = 2560 * 1024;
            p.dispatch_frac = 0.045;
            p.event_kinds = 24;
        })
    }

    /// bing.com — search: query, new results.
    pub fn bing() -> Self {
        Self::new("bing", "search", 4_858, 259, |p| {
            p.code_footprint_bytes = 2304 * 1024;
            p.event_kinds = 16;
            p.utilization = 0.88;
        })
    }

    /// cnn.com — news: headlines, world news.
    pub fn cnn() -> Self {
        Self::new("cnn", "news", 13_409, 1_230, |p| {
            p.code_footprint_bytes = 3072 * 1024;
            p.event_kinds = 32;
            p.mean_burst = 6.0;
        })
    }

    /// facebook.com — social networking: homepage, communities, pictures.
    pub fn facebook() -> Self {
        Self::new("facebook", "social networking", 9_305, 2_165, |p| {
            p.code_footprint_bytes = 3328 * 1024;
            p.dispatch_frac = 0.05;
            p.event_kinds = 32;
        })
    }

    /// maps.google.com — interactive maps: directions by three modes.
    pub fn gmaps() -> Self {
        Self::new("gmaps", "interactive maps", 7_298, 2_722, |p| {
            p.code_footprint_bytes = 2816 * 1024;
            p.streaming_frac = 0.22;
            p.heap_per_event = 48 * 1024;
            p.event_kinds = 24;
        })
    }

    /// docs.google.com — utilities: spreadsheet editing.
    pub fn gdocs() -> Self {
        Self::new("gdocs", "utilities", 1_714, 809, |p| {
            p.code_footprint_bytes = 2432 * 1024;
            p.event_kinds = 20;
            p.loop_frac = 0.10;
        })
    }

    /// pixlr.com — data-intensive online image editing: filter kernels.
    pub fn pixlr() -> Self {
        Self::new("pixlr", "data-intensive image editing", 465, 26, |p| {
            p.code_footprint_bytes = 768 * 1024;
            p.event_kinds = 8;
            // Compute kernels: heavy streaming over image data, loopy
            // code, smaller instruction footprint.
            p.loop_frac = 0.20;
            p.mean_loop_trips = 10;
            p.streaming_frac = 0.30;
            p.load_frac = 0.34;
            p.store_frac = 0.16;
            p.heap_per_event = 96 * 1024;
            p.kind_pool_permille = 300;
            p.event_pool_size = 24;
            p.mean_burst = 2.0;
            p.utilization = 0.80;
        })
    }

    /// Server-side async I/O: an event-loop service (think node.js or a
    /// Rust async executor under load) draining poll batches of tiny
    /// completion events. Statistically opposite to the browsing
    /// profiles: events are two orders of magnitude shorter, arrive in
    /// large bursts, chase pointers through per-connection state
    /// (deep inter-event dependence the prefetchers cannot stream), and
    /// run the *same* server code for the whole session instead of
    /// navigating to fresh pages.
    pub fn server_async() -> Self {
        Self::new("serverasync", "server-side async I/O", 120_000, 300, |p| {
            // Steady-state service: one long "phase", no page
            // navigations, moderate code image of hot loop + handlers.
            p.code_footprint_bytes = 1536 * 1024;
            p.events_per_phase = 64;
            p.event_kinds = 12;
            p.event_pool_size = 32;
            // Completion handlers chase connection/session state.
            p.chained_frac = 0.45;
            p.streaming_frac = 0.06;
            p.heap_per_event = 4 * 1024;
            p.load_frac = 0.32;
            p.store_frac = 0.10;
            // Callback dispatch on every completion.
            p.dispatch_frac = 0.04;
            // A loaded server: poll() returns big batches, little idle.
            p.mean_burst = 8.0;
            p.utilization = 0.95;
            p.p_divergence = 0.03;
        })
    }

    /// IoT/MQTT-style sensor firmware: a small finite-state machine
    /// handling bursty periodic sensor readings. The opposite corner
    /// from `server_async`: a tiny resident code image (it fits far up
    /// the cache hierarchy), few handler kinds, loopy filtering code
    /// with highly predictable branches, and long idle gaps between
    /// report bursts — lots of slack for pre-execution, little
    /// cold-miss work for it to hide.
    pub fn iot_fsm() -> Self {
        Self::new("iotfsm", "IoT sensor FSM", 2_000, 25, |p| {
            p.code_footprint_bytes = 256 * 1024;
            p.event_kinds = 6;
            p.events_per_phase = 48;
            p.event_pool_size = 16;
            p.kind_pool_permille = 400;
            p.shared_pool_permille = 150;
            // Filter/average loops over small sample windows.
            p.loop_frac = 0.14;
            p.mean_loop_trips = 6;
            p.strong_bias_frac = 0.97;
            p.chained_frac = 0.15;
            p.streaming_frac = 0.10;
            p.heap_per_event = 2 * 1024;
            // Periodic wake-ups: a burst of readings, then idle.
            p.mean_burst = 12.0;
            p.utilization = 0.35;
            p.p_divergence = 0.01;
            p.p_order_mispredict = 0.002;
        })
    }

    /// All seven profiles in the paper's presentation order.
    pub fn all() -> Vec<BenchmarkProfile> {
        vec![
            Self::amazon(),
            Self::bing(),
            Self::cnn(),
            Self::facebook(),
            Self::gmaps(),
            Self::gdocs(),
            Self::pixlr(),
        ]
    }

    /// The two extra families beyond the paper's web profiles.
    pub fn extras() -> Vec<BenchmarkProfile> {
        vec![Self::server_async(), Self::iot_fsm()]
    }

    /// Every built-in profile: the paper's seven web profiles followed
    /// by the extra families. Name lookups, `repro dump`, `repro
    /// check`, and the benchmark matrix iterate this list; the
    /// paper-replication figures keep using [`BenchmarkProfile::all`].
    pub fn all_families() -> Vec<BenchmarkProfile> {
        let mut v = Self::all();
        v.extend(Self::extras());
        v
    }

    /// Looks a profile up by its lowercase name, across every family.
    ///
    /// # Errors
    ///
    /// Returns [`esp_types::Error::UnknownName`] listing the known names
    /// for unknown input.
    pub fn by_name(name: &str) -> esp_types::Result<BenchmarkProfile> {
        Self::all_families()
            .into_iter()
            .find(|p| p.name == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Self::all_families().iter().map(|p| p.name).collect();
                esp_types::Error::unknown_name(format!("{name} (known: {})", known.join(", ")))
            })
    }

    /// The profile's short name ("amazon", "gmaps", …).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The application category from Fig. 6.
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// Events executed in the profile's reference session (the paper's
    /// reported count — Fig. 6 — for the web profiles; our calibration
    /// target for the extra families).
    pub fn paper_events(&self) -> u64 {
        self.paper_events
    }

    /// Millions of instructions in the profile's reference session
    /// (Fig. 6 for the web profiles, calibration target otherwise).
    pub fn paper_minstr(&self) -> u64 {
        self.paper_minstr
    }

    /// The reference session's implied mean event length in
    /// instructions.
    pub fn paper_mean_event_len(&self) -> u64 {
        self.paper_minstr * 1_000_000 / self.paper_events
    }

    /// The underlying generator parameters.
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    /// Returns a copy scaled to `target_instructions` total, capping the
    /// mean event length so the run holds at least 24 events.
    pub fn scaled(&self, target_instructions: u64) -> BenchmarkProfile {
        let mut p = self.clone();
        p.params.target_instructions = target_instructions;
        p.params.mean_event_len = self
            .paper_mean_event_len()
            .min((target_instructions / MIN_EVENTS).max(1_000));
        p
    }

    /// Generates the workload.
    ///
    /// # Panics
    ///
    /// Panics if the (preset) parameters fail validation — a bug, since
    /// presets are validated by tests.
    pub fn build(&self, seed: u64) -> GeneratedWorkload {
        GeneratedWorkload::generate(self.params.clone(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_are_valid() {
        for p in BenchmarkProfile::all_families() {
            p.params().validate().unwrap_or_else(|e| panic!("{}: {e}", p.name()));
            p.scaled(500_000).params().validate().unwrap();
        }
    }

    #[test]
    fn families_extend_the_paper_seven() {
        let all = BenchmarkProfile::all();
        let families = BenchmarkProfile::all_families();
        assert_eq!(all.len(), 7, "the paper's figure set stays seven");
        assert_eq!(families.len(), 9);
        let names: Vec<&str> = families.iter().map(|p| p.name()).collect();
        assert_eq!(&names[..7], &all.iter().map(|p| p.name()).collect::<Vec<_>>()[..]);
        assert_eq!(&names[7..], &["serverasync", "iotfsm"]);
        // Names stay unique across families.
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn extras_have_distinct_statistical_shapes() {
        let server = BenchmarkProfile::server_async();
        let iot = BenchmarkProfile::iot_fsm();
        let amazon = BenchmarkProfile::amazon();
        // Tiny completion events, two orders under the web profiles.
        assert_eq!(server.paper_mean_event_len(), 2_500);
        assert!(server.paper_mean_event_len() * 20 < amazon.paper_mean_event_len());
        // Deep inter-event dependence: more pointer chasing than any
        // web profile.
        for p in BenchmarkProfile::all() {
            assert!(server.params().chained_frac > p.params().chained_frac, "{}", p.name());
        }
        // The FSM's firmware image is the smallest code footprint of
        // any family, and its arrivals the burstiest with the most
        // idle time.
        for p in BenchmarkProfile::all() {
            assert!(iot.params().code_footprint_bytes < p.params().code_footprint_bytes);
            assert!(iot.params().mean_burst > p.params().mean_burst);
            assert!(iot.params().utilization < p.params().utilization);
        }
    }

    #[test]
    fn fig6_numbers() {
        let rows: Vec<(&str, u64, u64)> = BenchmarkProfile::all()
            .iter()
            .map(|p| (p.name(), p.paper_events(), p.paper_minstr()))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("amazon", 7_787, 434),
                ("bing", 4_858, 259),
                ("cnn", 13_409, 1_230),
                ("facebook", 9_305, 2_165),
                ("gmaps", 7_298, 2_722),
                ("gdocs", 1_714, 809),
                ("pixlr", 465, 26),
            ]
        );
    }

    #[test]
    fn by_name_roundtrip() {
        for p in BenchmarkProfile::all_families() {
            assert_eq!(BenchmarkProfile::by_name(p.name()).unwrap().name(), p.name());
        }
        let err = BenchmarkProfile::by_name("netscape").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("netscape") && msg.contains("iotfsm"), "{msg}");
    }

    #[test]
    fn scaling_caps_event_length() {
        let g = BenchmarkProfile::gmaps().scaled(480_000);
        // gmaps' real mean (~373k) must be capped to 480k/24 = 20k.
        assert_eq!(g.params().mean_event_len, 20_000);
        // amazon's real mean (~55.7k) is also capped at small scales...
        let a = BenchmarkProfile::amazon().scaled(480_000);
        assert_eq!(a.params().mean_event_len, 20_000);
        // ...but preserved at large scales.
        let a2 = BenchmarkProfile::amazon().scaled(4_000_000);
        assert_eq!(a2.params().mean_event_len, a2.paper_mean_event_len().min(4_000_000 / 24));
    }

    #[test]
    fn pixlr_is_data_intensive() {
        let p = BenchmarkProfile::pixlr();
        let a = BenchmarkProfile::amazon();
        assert!(p.params().streaming_frac > a.params().streaming_frac);
        assert!(p.params().code_footprint_bytes < a.params().code_footprint_bytes);
    }
}
