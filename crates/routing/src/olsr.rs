//! Optimized Link State Routing (RFC 3626), with the olsrd ETX/LQ
//! extension the paper describes.
//!
//! OLSR is proactive: every node periodically broadcasts HELLO messages to
//! sense its one-hop links and learn its two-hop neighbourhood; from those
//! it elects **multipoint relays (MPRs)** — the minimal neighbour subset
//! covering all two-hop nodes. Only MPRs forward Topology Control (TC)
//! floods, "by this way, the amount of control traffic can be reduced"
//! (paper §III-B-1). TC messages advertise each node's MPR-selector set;
//! the union of HELLO-sensed links and TC-learned links feeds a
//! shortest-path computation.
//!
//! With [`LinkMetric::Etx`] the route computation minimizes the expected
//! transmission count `ETX(i) = 1/(NI(i)·LQI(i))` instead of the hop count,
//! where `NI` is the packet arrival rate we measure on a link and `LQI` is
//! the rate the neighbour reports back — exactly the olsrd LQ extension the
//! paper cites.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use cavenet_net::snapshot::{read_node_id, read_time, write_node_id, write_time};
use cavenet_net::{
    ControlBlob, ControlCodec, DropReason, NodeApi, NodeId, Packet, RoutingProtocol,
    RoutingTelemetry, SimTime, WireError, WireReader, WireWriter,
};

/// Which link cost the route computation minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkMetric {
    /// Minimum hop count (RFC 3626 baseline).
    #[default]
    Hops,
    /// Minimum sum of ETX = 1/(NI·LQI) (olsrd LQ extension).
    Etx,
}

/// OLSR tunables (Table 1: HELLO 1 s, TC 2 s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OlsrConfig {
    /// HELLO emission interval.
    pub hello_interval: Duration,
    /// TC emission interval.
    pub tc_interval: Duration,
    /// Link/neighbour hold time (3 × HELLO by default).
    pub neighb_hold: Duration,
    /// Topology hold time (3 × TC by default).
    pub top_hold: Duration,
    /// Link metric for route computation.
    pub metric: LinkMetric,
    /// Sliding window (in HELLO periods) for ETX link-quality estimation.
    pub lq_window: u32,
}

impl Default for OlsrConfig {
    fn default() -> Self {
        OlsrConfig {
            hello_interval: Duration::from_secs(1),
            tc_interval: Duration::from_secs(2),
            neighb_hold: Duration::from_secs(3),
            top_hold: Duration::from_secs(6),
            metric: LinkMetric::Hops,
            lq_window: 10,
        }
    }
}

/// One neighbour entry inside a HELLO.
#[derive(Debug, Clone, Copy)]
struct HelloEntry {
    addr: NodeId,
    /// The sender considers the link to `addr` symmetric.
    sym: bool,
    /// The sender has selected `addr` as an MPR.
    is_mpr: bool,
    /// The sender's measured arrival rate on the link to `addr` (for ETX).
    lq: f64,
}

/// HELLO message (wire ≈ 16 + 8·entries bytes).
#[derive(Debug, Clone)]
struct Hello {
    entries: Vec<HelloEntry>,
}

/// Topology Control message (wire ≈ 16 + 8·selectors bytes).
#[derive(Debug, Clone)]
struct Tc {
    origin: NodeId,
    seq: u32,
    ansn: u16,
    /// The origin's MPR-selector set with the origin's link quality toward
    /// each.
    selectors: Vec<(NodeId, f64)>,
}

const TOKEN_HELLO: u64 = 1;
const TOKEN_TC: u64 = 2;
const TOKEN_TICK: u64 = 3;
const TICK: Duration = Duration::from_millis(250);

#[derive(Debug, Clone)]
struct LinkInfo {
    heard_until: SimTime,
    sym_until: SimTime,
    /// Times we received a HELLO from this neighbour (ETX window).
    hello_times: VecDeque<SimTime>,
    /// Arrival rate the neighbour reports for packets *from us* (LQI).
    lqi: f64,
}

impl LinkInfo {
    fn new() -> Self {
        LinkInfo {
            heard_until: SimTime::ZERO,
            sym_until: SimTime::ZERO,
            hello_times: VecDeque::new(),
            lqi: 1.0,
        }
    }

    fn is_sym(&self, now: SimTime) -> bool {
        self.sym_until > now
    }

    fn is_heard(&self, now: SimTime) -> bool {
        self.heard_until > now
    }
}

/// The OLSR routing protocol state for one node.
#[derive(Debug)]
pub struct Olsr {
    config: OlsrConfig,
    links: HashMap<NodeId, LinkInfo>,
    /// (neighbour, two-hop node) → expiry.
    two_hop: HashMap<(NodeId, NodeId), SimTime>,
    /// Selected MPRs, sorted.
    mprs: Vec<NodeId>,
    /// Neighbours that selected us as MPR → expiry.
    mpr_selectors: HashMap<NodeId, SimTime>,
    /// (destination, last hop) → (link quality, expiry).
    topology: HashMap<(NodeId, NodeId), (f64, SimTime)>,
    /// Highest ANSN seen per origin.
    origin_ansn: HashMap<NodeId, u16>,
    /// TC duplicate cache: (origin, seq) → expiry.
    seen_tc: HashMap<(NodeId, u32), SimTime>,
    /// `(destination, next hop, cost)`, sorted by destination. Current
    /// only while `stale` is `None`.
    routes: Vec<Route>,
    /// `Some((now, me))` when a route input changed at `now` after `routes`
    /// was built; the table is then rebuilt as of `now` when next read.
    ///
    /// Invariant: the route inputs — `links` (including `sym_until`, `lqi`
    /// and `hello_times`), `two_hop` and `topology` — change only in
    /// `handle_hello`, `handle_tc` and `tick`, and each of those calls
    /// [`Olsr::invalidate_routes`] at the same instant, after its last
    /// change. So the inputs at read time are the inputs at the recorded
    /// `now`, and the lazily built table equals the one an eager rebuild
    /// after every change would have left. A handler that changes a route
    /// input without invalidating breaks this.
    stale: Option<(SimTime, NodeId)>,
    tc_seq: u32,
    ansn: u16,
    last_selector_snapshot: Vec<NodeId>,
}

impl Default for Olsr {
    fn default() -> Self {
        Self::new()
    }
}

impl Olsr {
    /// OLSR with default configuration (hop-count metric).
    pub fn new() -> Self {
        Self::with_config(OlsrConfig::default())
    }

    /// OLSR minimizing ETX (the LQ extension).
    pub fn new_etx() -> Self {
        Self::with_config(OlsrConfig {
            metric: LinkMetric::Etx,
            ..OlsrConfig::default()
        })
    }

    /// OLSR with explicit configuration.
    pub fn with_config(config: OlsrConfig) -> Self {
        Olsr {
            config,
            links: HashMap::new(),
            two_hop: HashMap::new(),
            mprs: Vec::new(),
            mpr_selectors: HashMap::new(),
            topology: HashMap::new(),
            origin_ansn: HashMap::new(),
            seen_tc: HashMap::new(),
            routes: Vec::new(),
            stale: None,
            tc_seq: 0,
            ansn: 0,
            last_selector_snapshot: Vec::new(),
        }
    }

    /// Current symmetric neighbours.
    pub fn symmetric_neighbours(&self, now: SimTime) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .links
            .iter()
            .filter(|(_, l)| l.is_sym(now))
            .map(|(&n, _)| n)
            .collect();
        v.sort();
        v
    }

    /// Currently selected MPRs.
    pub fn mpr_set(&self) -> Vec<NodeId> {
        self.mprs.clone()
    }

    /// Current unexpired `(symmetric neighbour, two-hop node)` adjacency as
    /// learned from HELLOs — the input to MPR selection. Exposed so the
    /// testkit can check the MPR coverage property from outside.
    pub fn two_hop_pairs(&self, now: SimTime) -> Vec<(NodeId, NodeId)> {
        let mut v: Vec<(NodeId, NodeId)> = self
            .two_hop
            .iter()
            .filter(|(_, &exp)| exp > now)
            .map(|(&pair, _)| pair)
            .collect();
        v.sort();
        v
    }

    /// The computed route to `dst`, as `(next_hop, cost)`.
    pub fn route(&self, dst: NodeId) -> Option<(NodeId, f64)> {
        lookup(&self.current_routes(), dst)
    }

    /// The route table as of the last input change, built on the fly (and
    /// not cached) when stale.
    fn current_routes(&self) -> Cow<'_, [Route]> {
        match self.stale {
            Some((now, me)) => Cow::Owned(self.compute_routes(me, now)),
            None => Cow::Borrowed(&self.routes),
        }
    }

    /// Rebuild the route table if a route input changed since it was built.
    fn refresh_routes(&mut self) {
        if let Some((now, me)) = self.stale.take() {
            self.routes = self.compute_routes(me, now);
        }
    }

    /// Measured arrival rate (NI) for a neighbour over the LQ window.
    fn ni(&self, neighbour: NodeId, now: SimTime) -> f64 {
        let Some(link) = self.links.get(&neighbour) else {
            return 0.0;
        };
        let window = self.config.hello_interval * self.config.lq_window;
        let start = if now.as_nanos() > window.as_nanos() as u64 {
            SimTime::from_nanos(now.as_nanos() - window.as_nanos() as u64)
        } else {
            SimTime::ZERO
        };
        let received = link.hello_times.iter().filter(|&&t| t >= start).count();
        let expected = (now.saturating_since(start).as_secs_f64()
            / self.config.hello_interval.as_secs_f64())
        .max(1.0);
        (received as f64 / expected).min(1.0)
    }

    /// ETX cost of the direct link to `neighbour`.
    fn etx(&self, neighbour: NodeId, now: SimTime) -> f64 {
        let ni = self.ni(neighbour, now);
        let lqi = self.links.get(&neighbour).map_or(0.0, |l| l.lqi);
        if ni <= 0.0 || lqi <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / (ni * lqi)
        }
    }

    fn link_cost(&self, neighbour: NodeId, now: SimTime) -> f64 {
        match self.config.metric {
            LinkMetric::Hops => 1.0,
            LinkMetric::Etx => self.etx(neighbour, now),
        }
    }

    /// Remote link cost from a TC-advertised quality value.
    fn remote_cost(&self, lq: f64) -> f64 {
        match self.config.metric {
            LinkMetric::Hops => 1.0,
            LinkMetric::Etx => {
                if lq <= 0.0 {
                    f64::INFINITY
                } else {
                    (1.0 / lq).max(1.0)
                }
            }
        }
    }

    fn emit_hello(&mut self, api: &mut NodeApi<'_>) {
        let now = api.now();
        let me = api.id();
        let mut entries: Vec<HelloEntry> = self
            .links
            .iter()
            .filter(|(_, l)| l.is_heard(now))
            .map(|(&addr, l)| HelloEntry {
                addr,
                sym: l.is_sym(now),
                is_mpr: self.mprs.binary_search(&addr).is_ok(),
                lq: self.ni(addr, now),
            })
            .collect();
        entries.sort_by_key(|e| e.addr);
        let size = 16 + 8 * entries.len() as u32;
        let packet = Packet::control(me, NodeId::BROADCAST, size, Hello { entries });
        api.send(packet, NodeId::BROADCAST);
    }

    fn emit_tc(&mut self, api: &mut NodeApi<'_>) {
        let now = api.now();
        // Only nodes selected as MPR by someone generate TCs.
        self.mpr_selectors.retain(|_, &mut exp| exp > now);
        if self.mpr_selectors.is_empty() {
            return;
        }
        let mut selectors: Vec<NodeId> = self.mpr_selectors.keys().copied().collect();
        selectors.sort();
        if selectors != self.last_selector_snapshot {
            self.ansn = self.ansn.wrapping_add(1);
            self.last_selector_snapshot = selectors.clone();
        }
        self.tc_seq = self.tc_seq.wrapping_add(1);
        let tc = Tc {
            origin: api.id(),
            seq: self.tc_seq,
            ansn: self.ansn,
            selectors: selectors
                .into_iter()
                .map(|s| (s, self.ni(s, now)))
                .collect(),
        };
        let size = 16 + 8 * tc.selectors.len() as u32;
        let mut packet = Packet::control(api.id(), NodeId::BROADCAST, size, tc);
        packet.ttl = 32;
        api.send(packet, NodeId::BROADCAST);
    }

    fn handle_hello(&mut self, api: &mut NodeApi<'_>, hello: &Hello, from: NodeId) {
        let now = api.now();
        let me = api.id();
        let hold = self.config.neighb_hold;
        let window = self.config.hello_interval * self.config.lq_window;
        let link = self.links.entry(from).or_insert_with(LinkInfo::new);
        link.heard_until = now + hold;
        link.hello_times.push_back(now);
        while let Some(&t) = link.hello_times.front() {
            if now.saturating_since(t) > window {
                link.hello_times.pop_front();
            } else {
                break;
            }
        }
        let mut lists_me = None;
        for e in &hello.entries {
            if e.addr == me {
                lists_me = Some(*e);
            }
        }
        if let Some(e) = lists_me {
            // The neighbour hears us: the link is symmetric.
            link.sym_until = now + hold;
            link.lqi = e.lq.max(0.01);
            if e.is_mpr {
                self.mpr_selectors.insert(from, now + hold);
            } else {
                self.mpr_selectors.remove(&from);
            }
        }
        // Two-hop set: the sender's symmetric neighbours (except us).
        if self.links.get(&from).is_some_and(|l| l.is_sym(now)) {
            for e in &hello.entries {
                if e.sym && e.addr != me {
                    self.two_hop.insert((from, e.addr), now + hold);
                }
            }
        }
        self.recompute_mprs(now);
        self.invalidate_routes(now, me);
    }

    fn handle_tc(&mut self, api: &mut NodeApi<'_>, packet: &Packet, tc: &Tc, from: NodeId) {
        let now = api.now();
        if tc.origin == api.id() {
            return;
        }
        // RFC 3626 §9.5: discard if the sender is not a symmetric neighbour.
        if !self.links.get(&from).is_some_and(|l| l.is_sym(now)) {
            return;
        }
        let dup_key = (tc.origin, tc.seq);
        if self.seen_tc.contains_key(&dup_key) {
            return;
        }
        self.seen_tc.insert(dup_key, now + Duration::from_secs(30));

        // ANSN handling: ignore stale, flush on newer.
        let process = match self.origin_ansn.get(&tc.origin) {
            Some(&have) => {
                let diff = tc.ansn.wrapping_sub(have) as i16;
                if diff < 0 {
                    false
                } else {
                    if diff > 0 {
                        self.topology.retain(|&(_, lh), _| lh != tc.origin);
                    }
                    true
                }
            }
            None => true,
        };
        if process {
            self.origin_ansn.insert(tc.origin, tc.ansn);
            for &(sel, lq) in &tc.selectors {
                if sel == api.id() {
                    continue;
                }
                self.topology
                    .insert((sel, tc.origin), (lq, now + self.config.top_hold));
            }
            self.invalidate_routes(now, api.id());
        }

        // MPR flooding: forward only if the sender selected us as MPR.
        if self.mpr_selectors.contains_key(&from) && packet.ttl > 1 {
            let mut fwd = packet.clone();
            fwd.ttl -= 1;
            api.send(fwd, NodeId::BROADCAST);
        }
    }

    /// Greedy MPR selection (RFC 3626 §8.3.1 heuristic): first every
    /// neighbour that is the sole cover of some strict two-hop node, then
    /// repeatedly the neighbour covering the most still-uncovered ones
    /// (lowest id on ties).
    fn recompute_mprs(&mut self, now: SimTime) {
        self.two_hop.retain(|_, &mut exp| exp > now);
        let neighbours = self.symmetric_neighbours(now);
        let is_neighbour = |n: &NodeId| neighbours.binary_search(n).is_ok();
        // Strict two-hop adjacency, grouped by neighbour: reachable via a
        // sym neighbour, not a neighbour itself.
        let mut pairs: Vec<(NodeId, NodeId)> = self
            .two_hop
            .keys()
            .filter(|(n, t)| is_neighbour(n) && !is_neighbour(t))
            .copied()
            .collect();
        pairs.sort_unstable();
        let mut targets: Vec<NodeId> = pairs.iter().map(|&(_, t)| t).collect();
        targets.sort_unstable();
        targets.dedup();
        let target = |t: NodeId| {
            targets
                .binary_search(&t)
                .expect("every pair's two-hop node is a target")
        };
        let mut covers = vec![0u32; targets.len()];
        for &(_, t) in &pairs {
            covers[target(t)] += 1;
        }
        // 1. Neighbours that are the sole cover of some two-hop node.
        let mut mprs: Vec<NodeId> = pairs
            .iter()
            .filter(|&&(_, t)| covers[target(t)] == 1)
            .map(|&(n, _)| n)
            .collect();
        mprs.dedup();
        // Marks the two-hop nodes `n` covers; returns how many were new.
        let cover = |n: NodeId, covered: &mut [bool]| {
            let mut new = 0;
            for &(_, t) in pairs.iter().filter(|&&(nb, _)| nb == n) {
                let i = target(t);
                new += usize::from(!covered[i]);
                covered[i] = true;
            }
            new
        };
        let mut covered = vec![false; targets.len()];
        let mut uncovered = targets.len();
        for &m in &mprs {
            uncovered -= cover(m, &mut covered);
        }
        // 2. Greedy: repeatedly take the neighbour covering most uncovered.
        while uncovered > 0 {
            let mut best: Option<(usize, NodeId)> = None;
            for group in pairs.chunk_by(|a, b| a.0 == b.0) {
                let n = group[0].0;
                if mprs.binary_search(&n).is_ok() {
                    continue;
                }
                let gain = group.iter().filter(|&&(_, t)| !covered[target(t)]).count();
                // Groups ascend by id, so the first maximum has the lowest.
                if best.is_none_or(|(g, _)| gain > g) {
                    best = Some((gain, n));
                }
            }
            let Some((gain, best)) = best else { break };
            if gain == 0 {
                break;
            }
            let (Ok(at) | Err(at)) = mprs.binary_search(&best);
            mprs.insert(at, best);
            uncovered -= cover(best, &mut covered);
        }
        self.mprs = mprs;
    }

    /// Expire TC topology entries and mark the route table stale as of
    /// `now`. Every change to a route input must be followed by this call
    /// at the same instant (see `stale`).
    fn invalidate_routes(&mut self, now: SimTime, me: NodeId) {
        self.topology.retain(|_, &mut (_, exp)| exp > now);
        self.stale = Some((now, me));
    }

    /// Dijkstra over HELLO links + TC topology as of `now`, on index
    /// arrays over the sorted node ids.
    fn compute_routes(&self, me: NodeId, now: SimTime) -> Vec<Route> {
        // Edge list: (from, to, cost).
        let mut edges: Vec<(NodeId, NodeId, f64)> = Vec::new();
        for (&n, l) in &self.links {
            if l.is_sym(now) {
                edges.push((me, n, self.link_cost(n, now)));
            }
        }
        for (&(n, t), &exp) in &self.two_hop {
            if exp > now {
                edges.push((n, t, 1.0));
            }
        }
        for (&(dest, lasthop), &(lq, _)) in &self.topology {
            edges.push((lasthop, dest, self.remote_cost(lq)));
        }
        // The edge list is assembled from HashMaps, so its order is
        // per-process random; equal-cost relaxations below resolve by edge
        // order, which must not leak into next-hop choice.
        edges.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.total_cmp(&b.2)));

        let mut ids: Vec<NodeId> = edges.iter().flat_map(|&(f, t, _)| [f, t]).collect();
        ids.push(me);
        ids.sort_unstable();
        ids.dedup();
        let index = |n: NodeId| {
            ids.binary_search(&n)
                .expect("every edge endpoint is in ids")
        };
        let me_i = index(me);

        // Dijkstra with a simple scan (graphs are tiny).
        let mut dist: Vec<Option<f64>> = vec![None; ids.len()];
        let mut first_hop: Vec<Option<usize>> = vec![None; ids.len()];
        let mut done = vec![false; ids.len()];
        dist[me_i] = Some(0.0);
        loop {
            // The next node is the minimum of (dist, id).
            let mut next: Option<(usize, f64)> = None;
            for (i, d) in dist.iter().enumerate() {
                if let (Some(d), false) = (*d, done[i]) {
                    if next.is_none_or(|(_, best)| d.total_cmp(&best).is_lt()) {
                        next = Some((i, d));
                    }
                }
            }
            let Some((u, du)) = next else { break };
            done[u] = true;
            let from = ids[u];
            let lo = edges.partition_point(|e| e.0 < from);
            let hi = lo + edges[lo..].partition_point(|e| e.0 == from);
            for &(_, to, cost) in &edges[lo..hi] {
                if cost.is_infinite() {
                    continue;
                }
                let to = index(to);
                let nd = du + cost;
                if dist[to].is_none_or(|old| nd < old - 1e-12) {
                    dist[to] = Some(nd);
                    first_hop[to] = Some(if u == me_i {
                        to
                    } else {
                        first_hop[u].unwrap_or(u)
                    });
                }
            }
        }
        (0..ids.len())
            .filter(|&i| i != me_i)
            .filter_map(|i| Some((ids[i], ids[first_hop[i]?], dist[i]?)))
            .collect()
    }

    fn tick(&mut self, api: &mut NodeApi<'_>) {
        let now = api.now();
        self.seen_tc.retain(|_, &mut exp| exp > now);
        self.links
            .retain(|_, l| l.is_heard(now) || !l.hello_times.is_empty());
        self.recompute_mprs(now);
        self.invalidate_routes(now, api.id());
    }
}

/// `(destination, next hop, cost)`.
type Route = (NodeId, NodeId, f64);

/// The `(next hop, cost)` for `dst` in a destination-sorted table.
fn lookup(routes: &[Route], dst: NodeId) -> Option<(NodeId, f64)> {
    routes
        .binary_search_by_key(&dst, |r| r.0)
        .ok()
        .map(|i| (routes[i].1, routes[i].2))
}

/// Serializer for OLSR's in-flight control payloads (HELLO and TC). The
/// tag bytes are part of the checkpoint format and fixed forever.
#[derive(Debug, Clone, Copy, Default)]
pub struct OlsrCodec;

const CTRL_HELLO: u8 = 1;
const CTRL_TC: u8 = 2;

impl ControlCodec for OlsrCodec {
    fn encode(&self, blob: &ControlBlob, w: &mut WireWriter) -> Result<(), WireError> {
        if let Some(h) = blob.downcast_ref::<Hello>() {
            w.put_u8(CTRL_HELLO);
            w.put_usize(h.entries.len());
            for e in &h.entries {
                write_node_id(w, e.addr);
                w.put_bool(e.sym);
                w.put_bool(e.is_mpr);
                w.put_f64(e.lq);
            }
            return Ok(());
        }
        if let Some(tc) = blob.downcast_ref::<Tc>() {
            w.put_u8(CTRL_TC);
            write_node_id(w, tc.origin);
            w.put_u32(tc.seq);
            w.put_u16(tc.ansn);
            w.put_usize(tc.selectors.len());
            for &(sel, lq) in &tc.selectors {
                write_node_id(w, sel);
                w.put_f64(lq);
            }
            return Ok(());
        }
        Err(WireError::Malformed {
            what: "non-OLSR control payload",
            value: 0,
        })
    }

    fn decode(&self, r: &mut WireReader<'_>) -> Result<ControlBlob, WireError> {
        match r.get_u8()? {
            CTRL_HELLO => {
                let n = r.get_usize()?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push(HelloEntry {
                        addr: read_node_id(r)?,
                        sym: r.get_bool()?,
                        is_mpr: r.get_bool()?,
                        lq: r.get_f64()?,
                    });
                }
                Ok(std::sync::Arc::new(Hello { entries }))
            }
            CTRL_TC => {
                let origin = read_node_id(r)?;
                let seq = r.get_u32()?;
                let ansn = r.get_u16()?;
                let n = r.get_usize()?;
                let mut selectors = Vec::with_capacity(n);
                for _ in 0..n {
                    selectors.push((read_node_id(r)?, r.get_f64()?));
                }
                Ok(std::sync::Arc::new(Tc {
                    origin,
                    seq,
                    ansn,
                    selectors,
                }))
            }
            tag => Err(WireError::Malformed {
                what: "olsr control tag",
                value: u64::from(tag),
            }),
        }
    }
}

impl RoutingProtocol for Olsr {
    fn name(&self) -> &'static str {
        "olsr"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn telemetry(&self) -> RoutingTelemetry {
        RoutingTelemetry {
            route_table_size: self.current_routes().len() as u64,
            neighbours: self.links.len() as u64,
            mpr_set_size: self.mprs.len() as u64,
            ..RoutingTelemetry::default()
        }
    }

    fn on_crash(&mut self, _api: &mut NodeApi<'_>) {
        // OLSR never buffers data (no route means an immediate NoRoute
        // drop), so a crash surrenders nothing. Link-state tables need no
        // cleanup either: a cold-start recovery replaces the instance, and
        // a warm start deliberately keeps the stale topology — neighbours
        // expire it through the usual HELLO/TC hold timers.
    }

    fn start(&mut self, api: &mut NodeApi<'_>) {
        let jitter = Duration::from_millis(api.rng().gen_range(0..250));
        api.schedule(Duration::from_millis(100) + jitter, TOKEN_HELLO);
        api.schedule(self.config.tc_interval / 2 + jitter, TOKEN_TC);
        api.schedule(TICK + jitter, TOKEN_TICK);
    }

    fn route_output(&mut self, api: &mut NodeApi<'_>, packet: Packet) {
        if packet.dst.is_broadcast() {
            api.send(packet, NodeId::BROADCAST);
            return;
        }
        self.refresh_routes();
        if let Some((nh, _)) = lookup(&self.routes, packet.dst) {
            api.send(packet, nh);
        } else {
            // Proactive protocol: no route means drop (no buffering).
            api.drop_packet(packet, DropReason::NoRoute);
        }
    }

    fn handle_received(&mut self, api: &mut NodeApi<'_>, mut packet: Packet, from: NodeId) {
        if let Some(hello) = packet.body.as_control::<Hello>() {
            self.handle_hello(api, hello, from);
            return;
        }
        if let Some(tc) = packet.body.as_control::<Tc>() {
            self.handle_tc(api, &packet, tc, from);
            return;
        }
        // Data.
        if packet.dst == api.id() {
            api.deliver_to_app(packet);
            return;
        }
        if packet.ttl <= 1 {
            api.drop_packet(packet, DropReason::TtlExpired);
            return;
        }
        packet.ttl -= 1;
        self.refresh_routes();
        if let Some((nh, _)) = lookup(&self.routes, packet.dst) {
            api.send(packet, nh);
        } else {
            api.drop_packet(packet, DropReason::NoRoute);
        }
    }

    fn handle_timer(&mut self, api: &mut NodeApi<'_>, token: u64) {
        match token {
            TOKEN_HELLO => {
                self.emit_hello(api);
                let jitter = Duration::from_millis(api.rng().gen_range(0..100));
                api.schedule(
                    self.config.hello_interval - Duration::from_millis(50) + jitter,
                    TOKEN_HELLO,
                );
            }
            TOKEN_TC => {
                self.emit_tc(api);
                let jitter = Duration::from_millis(api.rng().gen_range(0..100));
                api.schedule(
                    self.config.tc_interval - Duration::from_millis(50) + jitter,
                    TOKEN_TC,
                );
            }
            TOKEN_TICK => {
                self.tick(api);
                api.schedule(TICK, TOKEN_TICK);
            }
            _ => {}
        }
    }

    fn capture_state(&self, w: &mut WireWriter) -> Result<(), WireError> {
        // Every map is serialized in sorted key order so the stream is
        // independent of HashMap iteration order.
        let mut link_ids: Vec<NodeId> = self.links.keys().copied().collect();
        link_ids.sort_by_key(|n| n.0);
        w.put_usize(link_ids.len());
        for n in link_ids {
            let l = &self.links[&n];
            write_node_id(w, n);
            write_time(w, l.heard_until);
            write_time(w, l.sym_until);
            w.put_usize(l.hello_times.len());
            for &t in &l.hello_times {
                write_time(w, t);
            }
            w.put_f64(l.lqi);
        }

        let mut two_hop: Vec<(NodeId, NodeId)> = self.two_hop.keys().copied().collect();
        two_hop.sort_by_key(|&(a, b)| (a.0, b.0));
        w.put_usize(two_hop.len());
        for key in two_hop {
            write_node_id(w, key.0);
            write_node_id(w, key.1);
            write_time(w, self.two_hop[&key]);
        }

        w.put_usize(self.mprs.len());
        for &n in &self.mprs {
            write_node_id(w, n);
        }

        let mut selectors: Vec<NodeId> = self.mpr_selectors.keys().copied().collect();
        selectors.sort_by_key(|n| n.0);
        w.put_usize(selectors.len());
        for n in selectors {
            write_node_id(w, n);
            write_time(w, self.mpr_selectors[&n]);
        }

        let mut topo: Vec<(NodeId, NodeId)> = self.topology.keys().copied().collect();
        topo.sort_by_key(|&(a, b)| (a.0, b.0));
        w.put_usize(topo.len());
        for key in topo {
            let (lq, exp) = self.topology[&key];
            write_node_id(w, key.0);
            write_node_id(w, key.1);
            w.put_f64(lq);
            write_time(w, exp);
        }

        let mut ansns: Vec<NodeId> = self.origin_ansn.keys().copied().collect();
        ansns.sort_by_key(|n| n.0);
        w.put_usize(ansns.len());
        for n in ansns {
            write_node_id(w, n);
            w.put_u16(self.origin_ansn[&n]);
        }

        let mut seen: Vec<(NodeId, u32)> = self.seen_tc.keys().copied().collect();
        seen.sort_by_key(|&(n, s)| (n.0, s));
        w.put_usize(seen.len());
        for key in seen {
            write_node_id(w, key.0);
            w.put_u32(key.1);
            write_time(w, self.seen_tc[&key]);
        }

        let routes = self.current_routes();
        w.put_usize(routes.len());
        for &(n, nh, cost) in routes.iter() {
            write_node_id(w, n);
            write_node_id(w, nh);
            w.put_f64(cost);
        }

        w.put_u32(self.tc_seq);
        w.put_u16(self.ansn);
        w.put_usize(self.last_selector_snapshot.len());
        for &n in &self.last_selector_snapshot {
            write_node_id(w, n);
        }
        Ok(())
    }

    fn restore_state(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        self.links.clear();
        for _ in 0..r.get_usize()? {
            let n = read_node_id(r)?;
            let heard_until = read_time(r)?;
            let sym_until = read_time(r)?;
            let times = r.get_usize()?;
            let mut hello_times = VecDeque::with_capacity(times);
            for _ in 0..times {
                hello_times.push_back(read_time(r)?);
            }
            let lqi = r.get_f64()?;
            self.links.insert(
                n,
                LinkInfo {
                    heard_until,
                    sym_until,
                    hello_times,
                    lqi,
                },
            );
        }

        self.two_hop.clear();
        for _ in 0..r.get_usize()? {
            let key = (read_node_id(r)?, read_node_id(r)?);
            self.two_hop.insert(key, read_time(r)?);
        }

        self.mprs.clear();
        for _ in 0..r.get_usize()? {
            self.mprs.push(read_node_id(r)?);
        }
        self.mprs.sort_unstable();
        self.mprs.dedup();

        self.mpr_selectors.clear();
        for _ in 0..r.get_usize()? {
            let n = read_node_id(r)?;
            self.mpr_selectors.insert(n, read_time(r)?);
        }

        self.topology.clear();
        for _ in 0..r.get_usize()? {
            let key = (read_node_id(r)?, read_node_id(r)?);
            let lq = r.get_f64()?;
            let exp = read_time(r)?;
            self.topology.insert(key, (lq, exp));
        }

        self.origin_ansn.clear();
        for _ in 0..r.get_usize()? {
            let n = read_node_id(r)?;
            self.origin_ansn.insert(n, r.get_u16()?);
        }

        self.seen_tc.clear();
        for _ in 0..r.get_usize()? {
            let key = (read_node_id(r)?, r.get_u32()?);
            self.seen_tc.insert(key, read_time(r)?);
        }

        self.routes.clear();
        for _ in 0..r.get_usize()? {
            self.routes
                .push((read_node_id(r)?, read_node_id(r)?, r.get_f64()?));
        }
        self.routes.sort_by_key(|r| r.0);
        self.stale = None;

        self.tc_seq = r.get_u32()?;
        self.ansn = r.get_u16()?;
        self.last_selector_snapshot.clear();
        for _ in 0..r.get_usize()? {
            self.last_selector_snapshot.push(read_node_id(r)?);
        }
        Ok(())
    }

    fn control_codec(&self) -> Option<Box<dyn ControlCodec>> {
        Some(Box::new(OlsrCodec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run_line, run_ring};
    use proptest::prelude::*;
    use std::collections::HashSet;

    // --- Oracles: the eager HashMap implementations the index-array code
    // replaced, kept to check it against. ---

    /// The former HashMap Dijkstra over `o`'s inputs at `now` (after the
    /// topology expiry that preceded it).
    fn oracle_routes(o: &Olsr, me: NodeId, now: SimTime) -> HashMap<NodeId, (NodeId, f64)> {
        let mut edges: Vec<(NodeId, NodeId, f64)> = Vec::new();
        for (&n, l) in &o.links {
            if l.is_sym(now) {
                edges.push((me, n, o.link_cost(n, now)));
            }
        }
        for (&(n, t), &exp) in &o.two_hop {
            if exp > now {
                edges.push((n, t, 1.0));
            }
        }
        for (&(dest, lasthop), &(lq, exp)) in &o.topology {
            if exp > now {
                edges.push((lasthop, dest, o.remote_cost(lq)));
            }
        }
        edges.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.total_cmp(&b.2)));
        let mut dist: HashMap<NodeId, f64> = HashMap::new();
        let mut first_hop: HashMap<NodeId, NodeId> = HashMap::new();
        let mut done: HashSet<NodeId> = HashSet::new();
        dist.insert(me, 0.0);
        loop {
            let next = dist
                .iter()
                .filter(|(n, _)| !done.contains(*n))
                .min_by(|a, b| a.1.total_cmp(b.1).then_with(|| a.0.cmp(b.0)))
                .map(|(&n, &d)| (n, d));
            let Some((u, du)) = next else { break };
            done.insert(u);
            for &(from, to, cost) in &edges {
                if from != u || cost.is_infinite() {
                    continue;
                }
                let nd = du + cost;
                if dist.get(&to).is_none_or(|&old| nd < old - 1e-12) {
                    dist.insert(to, nd);
                    let fh = if u == me {
                        to
                    } else {
                        first_hop.get(&u).copied().unwrap_or(u)
                    };
                    first_hop.insert(to, fh);
                }
            }
        }
        dist.into_iter()
            .filter(|&(n, _)| n != me)
            .filter_map(|(n, d)| first_hop.get(&n).map(|&fh| (n, (fh, d))))
            .collect()
    }

    /// The former HashSet MPR selection over `o`'s inputs at `now`.
    fn oracle_mprs(o: &Olsr, now: SimTime) -> HashSet<NodeId> {
        let neighbours: HashSet<NodeId> = o
            .links
            .iter()
            .filter(|(_, l)| l.is_sym(now))
            .map(|(&n, _)| n)
            .collect();
        let mut two_hop = o.two_hop.clone();
        two_hop.retain(|_, &mut exp| exp > now);
        let mut uncovered: HashSet<NodeId> = two_hop
            .keys()
            .filter(|(n, t)| neighbours.contains(n) && !neighbours.contains(t))
            .map(|&(_, t)| t)
            .collect();
        let coverage: HashMap<NodeId, HashSet<NodeId>> = neighbours
            .iter()
            .map(|&n| {
                let covers: HashSet<NodeId> = two_hop
                    .keys()
                    .filter(|&&(nb, t)| nb == n && uncovered.contains(&t))
                    .map(|&(_, t)| t)
                    .collect();
                (n, covers)
            })
            .collect();
        let mut mprs = HashSet::new();
        for &t in uncovered.clone().iter() {
            let covers: Vec<NodeId> = coverage
                .iter()
                .filter(|(_, c)| c.contains(&t))
                .map(|(&n, _)| n)
                .collect();
            if covers.len() == 1 {
                mprs.insert(covers[0]);
            }
        }
        for m in &mprs {
            if let Some(c) = coverage.get(m) {
                for t in c {
                    uncovered.remove(t);
                }
            }
        }
        while !uncovered.is_empty() {
            let best = coverage
                .iter()
                .filter(|(n, _)| !mprs.contains(*n))
                .max_by_key(|(n, c)| {
                    (
                        c.iter().filter(|t| uncovered.contains(t)).count(),
                        std::cmp::Reverse(n.0),
                    )
                })
                .map(|(&n, _)| n);
            let Some(best) = best else { break };
            let gain: Vec<NodeId> = coverage[&best]
                .iter()
                .filter(|t| uncovered.contains(t))
                .copied()
                .collect();
            if gain.is_empty() {
                break;
            }
            mprs.insert(best);
            for t in gain {
                uncovered.remove(&t);
            }
        }
        mprs
    }

    const ME: NodeId = NodeId(0);

    fn at(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A node at 20 s with random links, two-hop and topology sets over
    /// ids 0..8. Link states cover symmetric, heard-only and just-expired
    /// links; HELLO counts 0..12 in a 10 s window give ETX costs from
    /// infinite (no HELLO) to 1, with equal-cost ties between different
    /// (NI, LQI) pairs; TC qualities include 0 (infinite cost).
    #[allow(clippy::type_complexity)]
    fn build_state(
        (etx, links, two_hop, topology): (
            bool,
            Vec<(u32, u8, u64, u8)>,
            Vec<(u32, u32, bool)>,
            Vec<(u32, u32, u8, bool)>,
        ),
    ) -> Olsr {
        let now = at(20);
        let mut o = if etx { Olsr::new_etx() } else { Olsr::new() };
        for (n, state, hellos, lqi) in links {
            let mut link = LinkInfo::new();
            link.heard_until = if state == 2 { now } else { at(21) };
            link.sym_until = match state {
                0 => at(21),
                1 => at(5),
                _ => now,
            };
            link.hello_times = (0..hellos).rev().map(|k| at(20 - k)).collect();
            link.lqi = [1.0, 0.5, 0.25][usize::from(lqi)];
            o.links.insert(NodeId(n), link);
        }
        for (n, t, alive) in two_hop {
            let exp = if alive { at(21) } else { now };
            o.two_hop.insert((NodeId(n), NodeId(t)), exp);
        }
        for (dest, lasthop, lq, alive) in topology {
            let exp = if alive { at(26) } else { at(19) };
            let lq = [0.0, 0.25, 0.5, 1.0][usize::from(lq)];
            o.topology
                .insert((NodeId(dest), NodeId(lasthop)), (lq, exp));
        }
        o
    }

    fn arb_state() -> impl Strategy<Value = Olsr> {
        (
            any::<bool>(),
            prop::collection::vec((1u32..8, 0u8..3, 0u64..13, 0u8..3), 0..8),
            prop::collection::vec((0u32..8, 0u32..8, any::<bool>()), 0..20),
            prop::collection::vec((0u32..8, 0u32..8, 0u8..4, any::<bool>()), 0..20),
        )
            .prop_map(build_state)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn routes_match_the_hashmap_oracle(o in arb_state()) {
            let mut o = o;
            let expect = oracle_routes(&o, ME, at(20));
            o.invalidate_routes(at(20), ME);
            let got = o.current_routes().into_owned();
            prop_assert_eq!(got.len(), expect.len());
            for (dst, nh, cost) in got {
                let want = expect.get(&dst).map(|&(n, c)| (n, c.to_bits()));
                prop_assert_eq!(Some((nh, cost.to_bits())), want);
            }
        }

        #[test]
        fn mprs_match_the_hashset_oracle(o in arb_state()) {
            let mut o = o;
            let mut expect: Vec<NodeId> = oracle_mprs(&o, at(20)).into_iter().collect();
            expect.sort();
            o.recompute_mprs(at(20));
            prop_assert_eq!(o.mpr_set(), expect);
        }
    }

    #[test]
    fn stale_table_reads_equal_the_forced_table() {
        // ETX, whose link cost depends on the clock: every read must use
        // the table as of the recorded instant.
        let (_, sim) = run_line(4, 200.0, |_| Box::new(Olsr::new_etx()), 0, 3, 20, 12.0, 3);
        let capture = |o: &Olsr| {
            let mut w = WireWriter::new();
            o.capture_state(&mut w).expect("capture");
            w.into_bytes()
        };
        let reads = |o: &Olsr| {
            let routes: Vec<_> = (0..4).map(|d| o.route(NodeId(d))).collect();
            (routes, o.telemetry().route_table_size, capture(o))
        };
        let mut checked = 0;
        for i in 0..4 {
            let node = sim
                .routing(i)
                .expect("routing attached")
                .as_any()
                .expect("OLSR opts into downcasting")
                .downcast_ref::<Olsr>()
                .expect("protocol is OLSR");
            let Some(stale) = node.stale else { continue };
            // Same inputs, table not yet built.
            let mut copy = Olsr::new_etx();
            copy.restore_state(&mut WireReader::new(&capture(node)))
                .expect("restore");
            copy.routes.clear();
            copy.stale = Some(stale);
            let before = reads(&copy);
            assert_eq!(before, reads(node), "node {i}");
            assert!(before.1 > 0, "node {i}: converged line has routes");
            copy.refresh_routes();
            assert!(copy.stale.is_none());
            assert_eq!(reads(&copy), before, "node {i}: forcing changed a read");
            let (at, me) = stale;
            let eager = oracle_routes(&copy, me, at);
            assert_eq!(copy.routes.len(), eager.len(), "node {i}");
            for &(dst, nh, cost) in &copy.routes {
                assert_eq!(Some(&(nh, cost)), eager.get(&dst), "node {i}");
            }
            checked += 1;
        }
        assert!(checked > 0, "no node ended the run with a stale table");
    }

    #[test]
    fn name() {
        assert_eq!(Olsr::new().name(), "olsr");
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        crate::testutil::assert_snapshot_round_trip(4, |_| Box::new(Olsr::new()), 8.0, 7);
    }

    #[test]
    fn etx_snapshot_round_trip_is_bit_identical() {
        crate::testutil::assert_snapshot_round_trip(3, |_| Box::new(Olsr::new_etx()), 8.0, 9);
    }

    #[test]
    fn codec_round_trips_every_control_message() {
        let codec = OlsrCodec;
        let blobs: Vec<cavenet_net::ControlBlob> = vec![
            std::sync::Arc::new(Hello {
                entries: vec![
                    HelloEntry {
                        addr: NodeId(1),
                        sym: true,
                        is_mpr: false,
                        lq: 0.875,
                    },
                    HelloEntry {
                        addr: NodeId(2),
                        sym: false,
                        is_mpr: true,
                        lq: 1.0,
                    },
                ],
            }),
            std::sync::Arc::new(Tc {
                origin: NodeId(4),
                seq: 17,
                ansn: 3,
                selectors: vec![(NodeId(1), 0.5), (NodeId(9), 1.0)],
            }),
        ];
        for blob in blobs {
            let mut w = WireWriter::new();
            codec.encode(&blob, &mut w).expect("encode");
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let decoded = codec.decode(&mut r).expect("decode");
            r.finish().expect("whole stream consumed");
            let mut w2 = WireWriter::new();
            codec.encode(&decoded, &mut w2).expect("re-encode");
            assert_eq!(bytes, w2.into_bytes(), "codec round trip not stable");
        }
        let foreign: cavenet_net::ControlBlob = std::sync::Arc::new(1u8);
        assert!(matches!(
            codec.encode(&foreign, &mut WireWriter::new()),
            Err(WireError::Malformed { .. })
        ));
        let mut bad = WireReader::new(&[0x33]);
        assert!(matches!(
            codec.decode(&mut bad),
            Err(WireError::Malformed {
                what: "olsr control tag",
                ..
            })
        ));
    }

    #[test]
    fn single_hop_delivery_after_convergence() {
        // Link sensing takes 2–3 HELLO rounds; packets sent before that are
        // dropped (no buffering in a proactive protocol). Send 30 packets
        // over 6 s so most fall after convergence.
        let (log, _) = run_line(2, 200.0, |_| Box::new(Olsr::new()), 0, 1, 30, 10.0, 1);
        let got = log.borrow().received.len();
        assert!(got >= 20, "OLSR single hop should deliver, got {got}/30");
    }

    #[test]
    fn multi_hop_delivery_via_tc() {
        // 4 hops needs TC dissemination, not just hellos: allow several TC
        // rounds of convergence time.
        let (log, _) = run_line(5, 200.0, |_| Box::new(Olsr::new()), 0, 4, 40, 30.0, 2);
        let got = log.borrow().received.len();
        assert!(got >= 20, "OLSR multi-hop delivery too low: {got}/40");
    }

    #[test]
    fn ring_delivery() {
        let (log, _) = run_ring(30, 3000.0, |_| Box::new(Olsr::new()), 5, 0, 40, 40.0, 3);
        let got = log.borrow().received.len();
        assert!(got >= 10, "OLSR ring delivery too low: {got}/40");
    }

    #[test]
    fn early_packets_lost_before_convergence() {
        // Source starts at 0.5 s — before topology has converged over TC.
        // On a 4-hop chain the very first packets are typically dropped
        // (no route yet): the behaviour the paper's Fig. 9 shows as OLSR's
        // late goodput onset.
        let (log, _) = run_line(5, 200.0, |_| Box::new(Olsr::new()), 0, 4, 10, 20.0, 4);
        let log = log.borrow();
        if let Some(&(first_seq, _)) = log.received.first() {
            assert!(
                first_seq > 0,
                "expected the first packet(s) to be lost pre-convergence"
            );
        }
    }

    #[test]
    fn mpr_set_is_minimal_on_chain() {
        // Behavioural proxy: in a 3-node chain the middle node must relay
        // TCs (it is the only possible MPR), so end nodes learn each other.
        let (log, sim) = run_line(3, 200.0, |_| Box::new(Olsr::new()), 0, 2, 20, 20.0, 5);
        let got = log.borrow().received.len();
        assert!(got >= 10, "chain delivery too low: {got}/20");
        assert!(sim.node_stats(1).data_forwarded >= got as u64);
    }

    #[test]
    fn etx_variant_works() {
        let (log, _) = run_line(3, 200.0, |_| Box::new(Olsr::new_etx()), 0, 2, 30, 25.0, 6);
        let got = log.borrow().received.len();
        assert!(got >= 15, "ETX OLSR should deliver, got {got}/30");
    }

    #[test]
    fn no_route_drops_instead_of_buffering() {
        // Partitioned destination: packets are silently dropped (proactive
        // protocols do not buffer), and never delivered.
        let mobility =
            cavenet_net::StaticMobility::new(vec![(0.0, 0.0), (200.0, 0.0), (5000.0, 0.0)]);
        let (log, _) = crate::testutil::run_with_mobility(
            mobility,
            3,
            |_| Box::new(Olsr::new()),
            0,
            2,
            5,
            15.0,
            7,
        );
        assert_eq!(log.borrow().received.len(), 0);
    }

    #[test]
    fn control_overhead_is_periodic() {
        let (_, sim) = run_line(3, 200.0, |_| Box::new(Olsr::new()), 0, 2, 0, 10.0, 8);
        // ≈10 hellos per node plus TCs from the MPR (middle node).
        let hello_ish = sim.node_stats(0).control_sent;
        assert!((8..=30).contains(&hello_ish), "got {hello_ish}");
        let middle = sim.node_stats(1).control_sent;
        assert!(middle >= hello_ish, "the MPR node also sends TCs");
    }

    #[test]
    fn default_config_matches_table1() {
        let c = OlsrConfig::default();
        assert_eq!(c.hello_interval, Duration::from_secs(1));
        assert_eq!(c.tc_interval, Duration::from_secs(2));
    }

    #[test]
    fn crashed_mpr_is_dropped_and_reelected_after_recovery() {
        // 0-1-2 chain: node 1 is the only possible MPR for both ends. It
        // crashes at 6 s (well after convergence) and recovers at 12 s.
        // Node 0 must age the dead neighbour out within neighb_hold (3 s)
        // and recompute an empty MPR set; after recovery the HELLO
        // exchange must re-elect node 1.
        use cavenet_net::{FaultPlan, ScenarioConfig, Simulator, StaticMobility};

        let mut sim = Simulator::builder(ScenarioConfig::default())
            .nodes(3)
            .seed(2)
            .mobility(Box::new(StaticMobility::line(3, 200.0)))
            .fault_plan(
                FaultPlan::new()
                    .crash(SimTime::from_secs(6), 1)
                    .recover(SimTime::from_secs(12), 1),
            )
            .routing_with(|_| Box::new(Olsr::new()))
            .build();
        let olsr_of = |sim: &Simulator, node: usize| -> Vec<NodeId> {
            sim.routing(node)
                .expect("routing attached")
                .as_any()
                .expect("OLSR opts into downcasting")
                .downcast_ref::<Olsr>()
                .expect("protocol is OLSR")
                .mpr_set()
        };
        sim.run_until_secs(5.0);
        assert_eq!(
            olsr_of(&sim, 0),
            vec![NodeId(1)],
            "converged chain must elect the middle node"
        );
        sim.run_until_secs(11.0);
        assert!(
            olsr_of(&sim, 0).is_empty(),
            "dead MPR must age out and the set be recomputed"
        );
        assert!(olsr_of(&sim, 2).is_empty());
        sim.run_until_secs(18.0);
        assert_eq!(
            olsr_of(&sim, 0),
            vec![NodeId(1)],
            "recovered node must be re-elected as MPR"
        );
        assert_eq!(olsr_of(&sim, 2), vec![NodeId(1)]);
    }

    #[test]
    fn mpr_set_covers_every_strict_two_hop_neighbour() {
        // RFC 3626 §8.3.1: the MPR set of a node must reach every strict
        // two-hop neighbour. Ring of 10 nodes, 2000 m circumference: each
        // node hears exactly its two ring neighbours (200 m arc ≈ 198 m
        // chord < 250 m range; the two-hop chord ≈ 391 m is out of range),
        // so both ring neighbours must be selected as MPRs.
        let (_, sim) = run_ring(10, 2000.0, |_| Box::new(Olsr::new()), 0, 5, 0, 10.0, 4);
        let now = sim.now();
        for i in 0..10 {
            let olsr = sim
                .routing(i)
                .expect("routing attached")
                .as_any()
                .expect("OLSR opts into downcasting")
                .downcast_ref::<Olsr>()
                .expect("protocol is OLSR");
            let neighbours = olsr.symmetric_neighbours(now);
            assert_eq!(neighbours.len(), 2, "node {i}: ring neighbours");
            let mprs = olsr.mpr_set();
            assert!(!mprs.is_empty(), "node {i}: no MPRs despite two-hop nodes");
            // Coverage property: every strict two-hop node is reachable
            // through at least one selected MPR.
            let me = NodeId(i as u32);
            let strict: Vec<NodeId> = olsr
                .two_hop_pairs(now)
                .iter()
                .filter(|(_, t)| *t != me && !neighbours.contains(t))
                .map(|&(_, t)| t)
                .collect();
            assert!(!strict.is_empty(), "node {i}: ring must have two-hop nodes");
            for t in strict {
                let covered = olsr
                    .two_hop_pairs(now)
                    .iter()
                    .any(|&(n, t2)| t2 == t && mprs.contains(&n));
                assert!(covered, "node {i}: two-hop node {} uncovered by MPRs", t.0);
            }
        }
    }
}
