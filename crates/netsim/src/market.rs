//! The market planner: turns the declarative [`MarketPlan`] into a
//! concrete assignment of apps, permissions, leak groups, destinations and
//! per-(app, domain) packet quotas.
//!
//! Everything is driven by one seeded RNG, so a `(seed, scale)` pair
//! always produces the identical market. `scale` shrinks the whole plan
//! proportionally (apps, packets, group sizes, domain counts) for fast
//! tests; `scale = 1.0` is the paper-sized dataset.

use crate::device::{DeviceProfile, SensitiveKind};
use crate::names;
use crate::orgs::OrgRegistry;
use crate::permissions::{Permission, PermissionSet};
use crate::plan::{AppPool, DomainPlan, MarketPlan, MinorGroupPlan, TrafficStyle, TOTAL_PACKETS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::net::Ipv4Addr;

/// Generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct MarketConfig {
    /// Master seed; every derived choice flows from it.
    pub seed: u64,
    /// Proportional size factor. `1.0` reproduces the paper's dataset
    /// (1,188 apps / 107,859 packets); `0.1` gives a ~10k-packet market
    /// with the same structure.
    pub scale: f64,
}

impl MarketConfig {
    /// Paper-sized market.
    pub fn paper(seed: u64) -> Self {
        MarketConfig { seed, scale: 1.0 }
    }

    /// Scaled-down market for tests and quick runs.
    pub fn scaled(seed: u64, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        MarketConfig { seed, scale }
    }

    fn n(&self, count: usize) -> usize {
        ((count as f64 * self.scale).round() as usize).max(1)
    }
}

/// One synthesized application.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Stable identifier.
    pub id: usize,
    /// Display name.
    pub name: String,
    /// Package id.
    pub package: String,
    /// Vendor word reused in the app's own filler hostnames.
    pub vendor: String,
    /// App-local mutable identifier (the UUID alternative to UDIDs).
    pub uuid: String,
    /// Requested permission set.
    pub permissions: PermissionSet,
    /// True for apps that hold INTERNET plus permissions outside the four
    /// tracked ones; Table I's "INTERNET only" row excludes them.
    pub untracked_extras: bool,
    /// Target number of distinct destinations (Fig. 2 budget).
    pub dest_budget: usize,
}

/// A realized destination with its per-app packet quotas.
#[derive(Debug, Clone)]
pub struct DomainModel {
    /// Destination host (FQDN).
    pub host: String,
    /// Destination IPv4 address.
    pub ip: Ipv4Addr,
    /// Traffic rendering style.
    pub style: TrafficStyle,
    /// Kinds this destination's module can transmit (gated per app by
    /// group membership).
    pub leaks: Vec<SensitiveKind>,
    /// Appears in Table II.
    pub listed: bool,
    /// `(app id, packet count)`, every count ≥ 1.
    pub per_app: Vec<(usize, usize)>,
}

/// The fully planned market.
#[derive(Debug, Clone)]
pub struct MarketModel {
    /// Distance configuration in force.
    pub config: MarketConfig,
    /// Seed the plan and templates derive from.
    pub plan_seed: u64,
    /// The capture device’s identity.
    pub device: DeviceProfile,
    /// Distinct applications observed.
    pub apps: Vec<AppSpec>,
    /// Leak-group membership per sensitive kind.
    pub groups: BTreeMap<SensitiveKind, BTreeSet<usize>>,
    /// All destinations: majors, minor leak domains, then filler hosts.
    pub domains: Vec<DomainModel>,
    /// IP/organisation allocations.
    pub registry: OrgRegistry,
}

impl MarketModel {
    /// Build the market for `config`.
    pub fn build(config: MarketConfig) -> MarketModel {
        Planner::new(config).run()
    }

    /// Whether packets from `app` to a domain leaking `kind` carry it.
    pub fn app_leaks(&self, app: usize, kind: SensitiveKind) -> bool {
        self.groups.get(&kind).is_some_and(|g| g.contains(&app))
    }

    /// The same market (apps, destinations, quotas, templates) as seen
    /// from a different handset: identifiers change, structure does not.
    /// Used by the cross-device generalization experiment.
    pub fn with_device(mut self, device: DeviceProfile) -> MarketModel {
        self.device = device;
        self
    }

    /// Distinct destination count per app (Fig. 2's variable).
    pub fn destinations_per_app(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.apps.len()];
        for d in &self.domains {
            for &(app, _) in &d.per_app {
                counts[app] += 1;
            }
        }
        counts
    }

    /// Total planned packets across all destinations.
    pub fn total_packets(&self) -> usize {
        self.domains
            .iter()
            .map(|d| d.per_app.iter().map(|&(_, n)| n).sum::<usize>())
            .sum()
    }
}

/// Round-robin supplier over a shuffled group; guarantees full coverage
/// once the number of requested slots reaches the group size.
struct Cycler {
    members: Vec<usize>,
    pos: usize,
}

impl Cycler {
    fn new(mut members: Vec<usize>, rng: &mut StdRng) -> Self {
        members.shuffle(rng);
        Cycler { members, pos: 0 }
    }

    /// Up to `n` distinct members, continuing round-robin across calls.
    fn take(&mut self, n: usize) -> Vec<usize> {
        let n = n.min(self.members.len());
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            if self.pos == self.members.len() {
                self.pos = 0;
            }
            out.push(self.members[self.pos]);
            self.pos += 1;
        }
        out
    }
}

/// Split `total` into `weights.len()` nonneg integers with the given
/// minimums, proportional to weights, summing exactly to `total`
/// (largest-remainder rounding). Panics if the minimums exceed `total`.
fn allocate_exact(total: usize, weights: &[f64], min_each: usize) -> Vec<usize> {
    let n = weights.len();
    assert!(n > 0, "allocate_exact needs at least one bucket");
    assert!(
        min_each * n <= total,
        "minimums {min_each}x{n} exceed total {total}"
    );
    let spread = total - min_each * n;
    let wsum: f64 = weights.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    let shares: Vec<f64> = weights.iter().map(|w| w / wsum * spread as f64).collect();
    let mut out: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let assigned: usize = out.iter().sum();
    // Distribute the remainder to the largest fractional parts.
    let mut frac: Vec<(usize, f64)> = shares
        .iter()
        .enumerate()
        .map(|(i, s)| (i, s - s.floor()))
        .collect();
    frac.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    for &(i, _) in frac.iter().take(spread - assigned) {
        out[i] += 1;
    }
    for v in &mut out {
        *v += min_each;
    }
    out
}

struct Planner {
    config: MarketConfig,
    rng: StdRng,
    plan: MarketPlan,
}

impl Planner {
    fn new(config: MarketConfig) -> Self {
        Planner {
            rng: StdRng::seed_from_u64(config.seed),
            plan: MarketPlan::paper(config.seed),
            config,
        }
    }

    fn run(mut self) -> MarketModel {
        let device = DeviceProfile::generate(&mut self.rng);
        let apps = self.build_apps();
        let internet: Vec<usize> = apps
            .iter()
            .filter(|a| a.permissions.has(Permission::Internet))
            .map(|a| a.id)
            .collect();
        let phone_state: Vec<usize> = apps
            .iter()
            .filter(|a| a.permissions.has(Permission::ReadPhoneState))
            .map(|a| a.id)
            .collect();
        let multi_dest: Vec<usize> = apps
            .iter()
            .filter(|a| a.dest_budget >= 2)
            .map(|a| a.id)
            .collect();
        let internet_multi: Vec<usize> = internet
            .iter()
            .copied()
            .filter(|&a| apps[a].dest_budget >= 2)
            .collect();
        let phone_state_multi: Vec<usize> = phone_state
            .iter()
            .copied()
            .filter(|&a| apps[a].dest_budget >= 2)
            .collect();
        let _ = &multi_dest;
        let groups = self.build_groups(&internet_multi, &phone_state_multi);
        let mut apps = apps;
        self.boost_budgets(&mut apps, &groups);

        let mut registry = OrgRegistry::new();
        let mut used_hosts: HashSet<String> = HashSet::new();
        let mut remaining: Vec<i64> = apps.iter().map(|a| a.dest_budget as i64).collect();
        let mut cyclers: BTreeMap<SensitiveKind, Cycler> = groups
            .iter()
            .map(|(&k, members)| {
                (
                    k,
                    Cycler::new(members.iter().copied().collect(), &mut self.rng),
                )
            })
            .collect();

        let mut domains: Vec<DomainModel> = Vec::new();

        // Majors: Table II rows with exact packet and app quotas.
        let majors = std::mem::take(&mut self.plan.majors);
        for d in &majors {
            let model = self.realize_major(
                d,
                &internet,
                &groups,
                &mut cyclers,
                &mut remaining,
                &mut registry,
            );
            used_hosts.insert(model.host.clone());
            domains.push(model);
        }

        // Minor leak domains.
        let minors = std::mem::take(&mut self.plan.minors);
        for g in &minors {
            self.realize_minor_group(
                g,
                &mut cyclers,
                &mut remaining,
                &mut registry,
                &mut used_hosts,
                &mut domains,
            );
        }

        // Filler: top destination counts up to each app's budget and the
        // packet count up to the dataset total.
        self.realize_filler(
            &apps,
            &mut remaining,
            &mut registry,
            &mut used_hosts,
            &mut domains,
        );

        MarketModel {
            plan_seed: self.config.seed,
            config: self.config,
            device,
            apps,
            groups,
            domains,
            registry,
        }
    }

    fn build_apps(&mut self) -> Vec<AppSpec> {
        let c = self.config;
        // Permission rows: the five printed Table I rows, then the two
        // reconciliation rows that make the paper's 25%/61% statements
        // come out (see DESIGN.md): 74 apps with INTERNET+CONTACTS and 159
        // with INTERNET plus untracked extras.
        use Permission::*;
        let rows: Vec<(PermissionSet, usize, bool)> = vec![
            (PermissionSet::of(&[Internet]), 302, false),
            (PermissionSet::of(&[Internet, Location]), 329, false),
            (
                PermissionSet::of(&[Internet, Location, ReadPhoneState]),
                153,
                false,
            ),
            (PermissionSet::of(&[Internet, ReadPhoneState]), 148, false),
            (
                PermissionSet::of(&[Internet, Location, ReadPhoneState, ReadContacts]),
                23,
                false,
            ),
            (PermissionSet::of(&[Internet, ReadContacts]), 74, false),
            (PermissionSet::of(&[Internet]), 159, true),
        ];
        let mut perm_list: Vec<(PermissionSet, bool)> = Vec::new();
        for (set, count, extras) in rows {
            for _ in 0..c.n(count) {
                perm_list.push((set, extras));
            }
        }
        perm_list.shuffle(&mut self.rng);

        let mut apps = Vec::with_capacity(perm_list.len());
        for (id, (permissions, extras)) in perm_list.into_iter().enumerate() {
            let name = names::app_name(&mut self.rng);
            let package = names::package_name(&mut self.rng, &name);
            let vendor = name.split(' ').next().unwrap_or("app").to_string();
            let uuid: String = (0..16)
                .map(|_| char::from_digit(self.rng.random_range(0..16u32), 16).unwrap())
                .collect();
            apps.push(AppSpec {
                id,
                name,
                package,
                vendor,
                uuid,
                permissions,
                untracked_extras: extras,
                dest_budget: self.sample_budget(),
            });
        }
        // Exactly one "embedded browser" app with the maximum fan-out.
        let browser = self.rng.random_range(0..apps.len());
        apps[browser].dest_budget = c.n(84).max(3);
        apps
    }

    /// Destination-count budget per app, shaped to Fig. 2: ~7% single-
    /// destination apps, lognormal body with mean ≈ 8.4, p90 ≈ 15.
    fn sample_budget(&mut self) -> usize {
        if self.rng.random_bool(0.07) {
            return 1;
        }
        // Box–Muller normal; rand itself ships no distributions.
        let u1: f64 = self.rng.random::<f64>().max(1e-12);
        let u2: f64 = self.rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let v = (1.89 + 0.60 * z).exp();
        (v.round() as usize).clamp(2, 45)
    }

    fn build_groups(
        &mut self,
        internet: &[usize],
        phone_state: &[usize],
    ) -> BTreeMap<SensitiveKind, BTreeSet<usize>> {
        use SensitiveKind::*;
        let c = self.config;
        let pick = |pool: &[usize], n: usize, rng: &mut StdRng| -> BTreeSet<usize> {
            let n = n.min(pool.len());
            let mut shuffled = pool.to_vec();
            shuffled.shuffle(rng);
            shuffled.truncate(n);
            shuffled.into_iter().collect()
        };

        let mut rng = StdRng::seed_from_u64(self.rng.random());
        let imei = pick(phone_state, c.n(171), &mut rng);
        let imei_vec: Vec<usize> = imei.iter().copied().collect();
        let imsi = pick(&imei_vec, c.n(16), &mut rng);
        let sim_pool: Vec<usize> = imei_vec
            .iter()
            .copied()
            .filter(|a| !imsi.contains(a))
            .collect();
        let sim = pick(&sim_pool, c.n(13), &mut rng);
        let imei_md5 = pick(phone_state, c.n(59), &mut rng);
        let imei_sha1 = pick(phone_state, c.n(51), &mut rng);

        let aid_md5 = pick(internet, c.n(433), &mut rng);
        let aid_md5_vec: Vec<usize> = aid_md5.iter().copied().collect();
        // AndroidId (plain) group: mostly IMEI apps so the four
        // "IMEI and Android ID" domains produce co-leaking packets.
        let from_imei = pick(&imei_vec, c.n(12), &mut rng);
        let rest_pool: Vec<usize> = internet
            .iter()
            .copied()
            .filter(|a| !from_imei.contains(a))
            .collect();
        let mut aid: BTreeSet<usize> = from_imei;
        aid.extend(pick(
            &rest_pool,
            c.n(21).saturating_sub(aid.len()).max(1),
            &mut rng,
        ));
        let aid_sha1 = pick(internet, c.n(47), &mut rng);

        // Carrier: ~90 AidMd5 apps (carrier rides along on hashed-id ad
        // requests) + all SIM apps + a remainder from the whole market.
        let mut carrier: BTreeSet<usize> = pick(&aid_md5_vec, c.n(80), &mut rng);
        carrier.extend(sim.iter().copied());
        let others: Vec<usize> = internet
            .iter()
            .copied()
            .filter(|a| !carrier.contains(a))
            .collect();
        let shortfall = c.n(135).saturating_sub(carrier.len()).max(1);
        carrier.extend(pick(&others, shortfall, &mut rng));

        let mut groups = BTreeMap::new();
        groups.insert(AndroidId, aid);
        groups.insert(AndroidIdMd5, aid_md5);
        groups.insert(AndroidIdSha1, aid_sha1);
        groups.insert(Carrier, carrier);
        groups.insert(Imei, imei);
        groups.insert(ImeiMd5, imei_md5);
        groups.insert(ImeiSha1, imei_sha1);
        groups.insert(Imsi, imsi);
        groups.insert(SimSerial, sim);
        groups
    }

    /// Group members need room in their destination budgets for the leak
    /// domains the plan will route through them.
    fn boost_budgets(
        &mut self,
        apps: &mut [AppSpec],
        groups: &BTreeMap<SensitiveKind, BTreeSet<usize>>,
    ) {
        use SensitiveKind::*;
        let floors: &[(SensitiveKind, usize)] = &[
            (AndroidId, 11),
            (Imsi, 4),
            (SimSerial, 4),
            (ImeiMd5, 3),
            (ImeiSha1, 3),
            (AndroidIdSha1, 3),
            (Imei, 3),
            (AndroidIdMd5, 2),
        ];
        for &(kind, floor) in floors {
            if let Some(members) = groups.get(&kind) {
                for &a in members {
                    let jitter = self.rng.random_range(0..3usize);
                    apps[a].dest_budget = apps[a].dest_budget.max(floor + jitter);
                }
            }
        }
    }

    fn realize_major(
        &mut self,
        d: &DomainPlan,
        internet: &[usize],
        groups: &BTreeMap<SensitiveKind, BTreeSet<usize>>,
        cyclers: &mut BTreeMap<SensitiveKind, Cycler>,
        remaining: &mut [i64],
        registry: &mut OrgRegistry,
    ) -> DomainModel {
        let mut chosen: Vec<usize> = Vec::new();
        let mut seen: HashSet<usize> = HashSet::new();
        // Members of every leaked kind's group are barred from Any picks:
        // an accidental group member chosen through the Any pool would
        // leak and silently inflate the kind's Table III packet count.
        let leak_members: HashSet<usize> = d
            .leaks
            .iter()
            .flat_map(|k| groups[k].iter().copied())
            .collect();
        for &(pool, quota) in &d.sources {
            let quota = self.config.n(quota);
            match pool {
                AppPool::Group(kind) => {
                    let cy = cyclers.get_mut(&kind).expect("group exists");
                    let mut got = 0;
                    // Cycle until quota distinct-for-this-domain members
                    // are found (bounded by two full passes).
                    let limit = quota * 2 + cy.members.len();
                    let mut tries = 0;
                    while got < quota && tries < limit {
                        for a in cy.take(1) {
                            tries += 1;
                            if seen.insert(a) {
                                chosen.push(a);
                                got += 1;
                            }
                        }
                        if cy.members.iter().all(|a| seen.contains(a)) {
                            break; // group exhausted for this domain
                        }
                    }
                }
                AppPool::Any => {
                    let banned: HashSet<usize> = seen.union(&leak_members).copied().collect();
                    let picked = self.weighted_pick(internet, quota, &banned, remaining);
                    for a in picked {
                        seen.insert(a);
                        chosen.push(a);
                    }
                }
            }
        }
        for &a in &chosen {
            remaining[a] -= 1;
        }

        let packets = self.config.n(d.packets).max(chosen.len());
        let weights: Vec<f64> = chosen
            .iter()
            .map(|_| 0.3 + self.rng.random::<f64>().powi(2) * 3.0)
            .collect();
        let alloc = allocate_exact(packets, &weights, 1);
        let ip = registry.register(&d.host, false);

        DomainModel {
            host: d.host.clone(),
            ip,
            style: d.style,
            leaks: d.leaks.clone(),
            listed: d.listed,
            per_app: chosen.into_iter().zip(alloc).collect(),
        }
    }

    /// Weighted sample (by remaining destination budget) without
    /// replacement, excluding `seen`. Uses exponential-race keys.
    fn weighted_pick(
        &mut self,
        pool: &[usize],
        n: usize,
        seen: &HashSet<usize>,
        remaining: &[i64],
    ) -> Vec<usize> {
        let mut keyed: Vec<(f64, usize)> = pool
            .iter()
            .copied()
            .filter(|a| !seen.contains(a))
            .map(|a| {
                let w = (remaining[a].max(0) as f64) + 0.02;
                let u: f64 = self.rng.random::<f64>().max(1e-12);
                (-u.ln() / w, a)
            })
            .collect();
        keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        keyed.truncate(n);
        keyed.into_iter().map(|(_, a)| a).collect()
    }

    fn realize_minor_group(
        &mut self,
        g: &MinorGroupPlan,
        cyclers: &mut BTreeMap<SensitiveKind, Cycler>,
        remaining: &mut [i64],
        registry: &mut OrgRegistry,
        used_hosts: &mut HashSet<String>,
        out: &mut Vec<DomainModel>,
    ) {
        let c = self.config;
        let domain_count = c.n(g.domains);
        let hosts: Vec<String> = (0..domain_count)
            .map(|_| loop {
                let h = names::ad_host(&mut self.rng);
                if used_hosts.insert(h.clone()) {
                    break h;
                }
            })
            .collect();

        // Apps per domain, then a packet split that respects them.
        let apps_per: Vec<usize> = hosts
            .iter()
            .map(|_| {
                self.rng
                    .random_range(g.apps_per_domain.0..=g.apps_per_domain.1)
            })
            .collect();
        // Heavy-tailed per-domain packet mass (ad-network traffic is
        // Zipf-like): a few shops in each group carry most packets, the
        // rest form a long thin tail.
        let weights: Vec<f64> = hosts
            .iter()
            .map(|_| (0.08 + self.rng.random::<f64>()).powf(-2.5).min(1200.0))
            .collect();
        let min_apps = *apps_per.iter().max().unwrap_or(&1);
        let total_packets = c.n(g.packets).max(min_apps * domain_count);
        let per_domain_packets = allocate_exact(total_packets, &weights, min_apps);

        for ((host, k), packets) in hosts.iter().zip(apps_per).zip(per_domain_packets) {
            let cy = cyclers.get_mut(&g.pool).expect("group exists");
            let mut members: Vec<usize> = Vec::new();
            let mut seen = HashSet::new();
            let limit = k * 2 + cy.members.len();
            let mut tries = 0;
            while members.len() < k && tries < limit {
                for a in cy.take(1) {
                    tries += 1;
                    if seen.insert(a) {
                        members.push(a);
                    }
                }
                if cy.members.iter().all(|a| seen.contains(a)) {
                    break;
                }
            }
            if members.is_empty() {
                // At small scales the pool can be empty: a domain no app
                // talks to carries no traffic, so it is left out.
                continue;
            }
            for &a in &members {
                remaining[a] -= 1;
            }
            let w: Vec<f64> = members
                .iter()
                .map(|_| 0.5 + self.rng.random::<f64>())
                .collect();
            let alloc = allocate_exact(packets, &w, 1);
            // ~12% of minor ad shops sit on shared hosting (the §VI
            // "close IP, different org" hazard).
            let shared = self.rng.random_bool(0.12);
            let ip = registry.register(host, shared);
            out.push(DomainModel {
                host: host.clone(),
                ip,
                style: TrafficStyle::Ad,
                leaks: g.leaks.clone(),
                listed: false,
                per_app: members.into_iter().zip(alloc).collect(),
            });
        }
    }

    fn realize_filler(
        &mut self,
        apps: &[AppSpec],
        remaining: &mut [i64],
        registry: &mut OrgRegistry,
        used_hosts: &mut HashSet<String>,
        out: &mut Vec<DomainModel>,
    ) {
        let planned: usize = out
            .iter()
            .map(|d| d.per_app.iter().map(|&(_, n)| n).sum::<usize>())
            .sum();
        let target_total = self.config.n(TOTAL_PACKETS);
        let filler_budget = target_total.saturating_sub(planned);

        // Which apps still need destinations. Apps with zero assigned
        // destinations get at least one so every app appears in Fig. 2.
        let mut assigned = vec![false; apps.len()];
        for d in out.iter() {
            for &(a, _) in &d.per_app {
                assigned[a] = true;
            }
        }
        let mut pairs: Vec<(usize, String)> = Vec::new();
        for app in apps {
            let mut want = remaining[app.id].max(0) as usize;
            if !assigned[app.id] {
                want = want.max(1);
            }
            for _ in 0..want {
                let host = loop {
                    let h = names::filler_host(&mut self.rng, &app.vendor);
                    if used_hosts.insert(h.clone()) {
                        break h;
                    }
                };
                pairs.push((app.id, host));
            }
            remaining[app.id] = 0;
        }
        if pairs.is_empty() {
            return;
        }
        // Every filler pair carries at least one packet; drop pairs if the
        // packet budget is too small (only possible at tiny scales).
        let usable = pairs.len().min(filler_budget.max(1));
        pairs.truncate(usable);
        let weights: Vec<f64> = pairs
            .iter()
            .map(|_| 0.2 + self.rng.random::<f64>().powi(3) * 6.0)
            .collect();
        let alloc = allocate_exact(filler_budget.max(pairs.len()), &weights, 1);

        for ((app, host), packets) in pairs.into_iter().zip(alloc) {
            let style = if self.rng.random_bool(0.55) {
                TrafficStyle::Content
            } else {
                TrafficStyle::Api
            };
            let ip = registry.register(&host, false);
            out.push(DomainModel {
                host,
                ip,
                style,
                leaks: Vec::new(),
                listed: false,
                per_app: vec![(app, packets)],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MarketModel {
        MarketModel::build(MarketConfig::scaled(42, 0.08))
    }

    #[test]
    fn deterministic_under_seed() {
        let a = MarketModel::build(MarketConfig::scaled(7, 0.05));
        let b = MarketModel::build(MarketConfig::scaled(7, 0.05));
        assert_eq!(a.apps.len(), b.apps.len());
        assert_eq!(a.total_packets(), b.total_packets());
        assert_eq!(a.domains.len(), b.domains.len());
        for (x, y) in a.domains.iter().zip(&b.domains) {
            assert_eq!(x.host, y.host);
            assert_eq!(x.per_app, y.per_app);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = MarketModel::build(MarketConfig::scaled(1, 0.05));
        let b = MarketModel::build(MarketConfig::scaled(2, 0.05));
        let hosts_a: Vec<&str> = a.domains.iter().map(|d| d.host.as_str()).collect();
        let hosts_b: Vec<&str> = b.domains.iter().map(|d| d.host.as_str()).collect();
        assert_ne!(hosts_a, hosts_b);
    }

    #[test]
    fn total_packets_tracks_scale() {
        let m = small();
        let want = TOTAL_PACKETS as f64 * 0.08;
        let got = m.total_packets() as f64;
        assert!(
            (got - want).abs() / want < 0.08,
            "packets {got} vs target {want}"
        );
    }

    /// Every scale `MarketConfig::scaled` accepts generates. Below about
    /// 0.01 a minor group's app pool is empty; a domain that draws no
    /// apps is left out rather than handed to `allocate_exact`.
    #[test]
    fn small_scales_generate() {
        for seed in [1, 2, 3] {
            for scale in [0.0001, 0.001, 0.006, 0.008] {
                let m = MarketModel::build(MarketConfig::scaled(seed, scale));
                assert!(m.total_packets() > 0, "seed {seed} scale {scale}");
                assert!(m.domains.iter().all(|d| !d.per_app.is_empty()));
            }
        }
        let data = crate::trace::Dataset::generate(MarketConfig::scaled(1, 0.008));
        assert_eq!(data.packets.len(), data.model.total_packets());
    }

    #[test]
    fn every_app_has_a_destination() {
        let m = small();
        let per_app = m.destinations_per_app();
        assert_eq!(per_app.len(), m.apps.len());
        assert!(per_app.iter().all(|&c| c >= 1));
    }

    #[test]
    fn per_app_packet_quotas_are_positive() {
        let m = small();
        for d in &m.domains {
            assert!(!d.per_app.is_empty(), "{} has no apps", d.host);
            for &(app, n) in &d.per_app {
                assert!(n >= 1, "{}: app {app} got zero packets", d.host);
                assert!(app < m.apps.len());
            }
            // No duplicate apps within a domain.
            let distinct: HashSet<usize> = d.per_app.iter().map(|&(a, _)| a).collect();
            assert_eq!(distinct.len(), d.per_app.len(), "{}", d.host);
        }
    }

    #[test]
    fn leak_domains_draw_from_their_groups() {
        let m = small();
        for d in m
            .domains
            .iter()
            .filter(|d| !d.leaks.is_empty() && !d.listed)
        {
            // Minor leak domains source exclusively from the pool group,
            // so every app must belong to at least one leaked kind's group.
            for &(app, _) in &d.per_app {
                assert!(
                    d.leaks.iter().any(|&k| m.app_leaks(app, k)),
                    "{}: app {app} leaks none of {:?}",
                    d.host,
                    d.leaks
                );
            }
        }
    }

    #[test]
    fn phone_state_kinds_only_in_phone_state_apps() {
        let m = small();
        for (&kind, members) in &m.groups {
            if kind.needs_phone_state() {
                for &a in members {
                    assert!(
                        m.apps[a].permissions.has(Permission::ReadPhoneState),
                        "{kind:?} app {a} lacks READ_PHONE_STATE"
                    );
                }
            }
        }
    }

    #[test]
    fn table_i_rows_exact_at_full_counts() {
        // Scale 1.0 app synthesis is cheap even though packets aren't
        // generated here.
        let m = MarketModel::build(MarketConfig::scaled(3, 1.0));
        let count = |set: PermissionSet, extras: bool| {
            m.apps
                .iter()
                .filter(|a| a.permissions == set && a.untracked_extras == extras)
                .count()
        };
        use Permission::*;
        assert_eq!(count(PermissionSet::of(&[Internet]), false), 302);
        assert_eq!(count(PermissionSet::of(&[Internet, Location]), false), 329);
        assert_eq!(
            count(
                PermissionSet::of(&[Internet, Location, ReadPhoneState]),
                false
            ),
            153
        );
        assert_eq!(
            count(PermissionSet::of(&[Internet, ReadPhoneState]), false),
            148
        );
        assert_eq!(m.apps.len(), 1188);
    }

    #[test]
    fn allocate_exact_properties() {
        let out = allocate_exact(100, &[1.0, 2.0, 3.0, 4.0], 5);
        assert_eq!(out.iter().sum::<usize>(), 100);
        assert!(out.iter().all(|&v| v >= 5));
        assert!(out[3] > out[0]);

        let exact = allocate_exact(7, &[1.0; 7], 1);
        assert_eq!(exact, vec![1; 7]);
    }

    #[test]
    #[should_panic(expected = "minimums")]
    fn allocate_exact_rejects_infeasible() {
        let _ = allocate_exact(3, &[1.0, 1.0], 2);
    }
}
