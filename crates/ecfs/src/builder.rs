//! Fluent construction of experiment clusters.
//!
//! [`ClusterBuilder`] is the single entry point for assembling a
//! [`Cluster`]: it owns a [`ClusterConfig`] under construction, the
//! scheme choice (a closure or a [`SchemeRegistry`] name), and the
//! workload to install, so call sites never hand-wire
//! `Cluster::new(cfg, make_scheme)` + `set_workload` sequences again.
//!
//! ```
//! use tsue_ecfs::{ClusterBuilder, InstantScheme};
//!
//! let world = ClusterBuilder::ssd(4, 2, 2)
//!     .osds(8)
//!     .file_size_per_client(1 << 20)
//!     .seed(7)
//!     .scheme_fn(|_| Box::new(InstantScheme::default()))
//!     .build();
//! assert_eq!(world.core.cfg.osds, 8);
//! ```

use crate::registry::{MakeScheme, SchemeError, SchemeParams, SchemeRegistry};
use crate::{Cluster, ClusterConfig, DeviceKind, PlacementKind, UpdateScheme};
use tsue_ec::StripeConfig;
use tsue_net::{NetSpec, Topology};
use tsue_trace::WorkloadProfile;

/// Fluent builder for [`Cluster`].
pub struct ClusterBuilder {
    cfg: ClusterConfig,
    make: Option<MakeScheme>,
    /// Synthetic profile installed on every client right after
    /// provisioning; `None` leaves the clients without a generator.
    workload: Option<WorkloadProfile>,
    ops_per_client: Option<u64>,
}

impl ClusterBuilder {
    /// Starts from the paper's SSD testbed shape (16 OSDs, 25 Gb/s
    /// Ethernet, 1 MiB blocks).
    pub fn ssd(k: usize, m: usize, clients: usize) -> Self {
        Self::from_config(ClusterConfig::ssd_testbed(k, m, clients))
    }

    /// Starts from the paper's HDD testbed shape (16 OSDs, 40 Gb/s
    /// InfiniBand).
    pub fn hdd(k: usize, m: usize, clients: usize) -> Self {
        Self::from_config(ClusterConfig::hdd_testbed(k, m, clients))
    }

    /// Starts from an explicit configuration (transition path for code
    /// still assembling [`ClusterConfig`] by hand).
    pub fn from_config(cfg: ClusterConfig) -> Self {
        ClusterBuilder {
            cfg,
            make: None,
            workload: None,
            ops_per_client: None,
        }
    }

    /// Number of OSD nodes.
    pub fn osds(mut self, n: usize) -> Self {
        self.cfg.osds = n;
        self
    }

    /// Full stripe geometry override.
    pub fn stripe(mut self, stripe: StripeConfig) -> Self {
        self.cfg.stripe = stripe;
        self
    }

    /// Block size in bytes, keeping the current (k, m).
    pub fn block_size(mut self, bytes: u64) -> Self {
        self.cfg.stripe = StripeConfig::new(self.cfg.stripe.k, self.cfg.stripe.m, bytes);
        self
    }

    /// Device class backing every OSD. Call before [`Self::scheme`] so
    /// registry factories see the final device.
    pub fn device(mut self, device: DeviceKind) -> Self {
        self.cfg.device = device;
        self
    }

    /// Network fabric parameters.
    pub fn net(mut self, net: NetSpec) -> Self {
        self.cfg.net = net;
        self
    }

    /// Fabric shape: flat non-blocking switch (default) or racks behind
    /// oversubscribed ToR uplinks.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.cfg.topology = topology;
        self
    }

    /// Block placement policy (flat round-robin vs rack-aware spread).
    pub fn placement(mut self, placement: PlacementKind) -> Self {
        self.cfg.placement = placement;
        self
    }

    /// Bytes of file data owned by each client.
    pub fn file_size_per_client(mut self, bytes: u64) -> Self {
        self.cfg.file_size_per_client = bytes;
        self
    }

    /// Maintain real block/log bytes (correctness runs) instead of
    /// timing-only accounting.
    pub fn materialize(mut self, on: bool) -> Self {
        self.cfg.materialize = on;
        self
    }

    /// Maintain and verify per-page block checksums (default on; only
    /// effective together with [`Self::materialize`]).
    pub fn checksums(mut self, on: bool) -> Self {
        self.cfg.checksums = on;
        self
    }

    /// Background scrub rate in MiB/s per OSD (`0` disables; see
    /// [`crate::scrub`]).
    pub fn scrub_mb_s(mut self, rate: u64) -> Self {
        self.cfg.scrub_mb_s = rate;
        self
    }

    /// Record per-extent arrival order (needed by correctness checks).
    pub fn record_arrivals(mut self, on: bool) -> Self {
        self.cfg.record_arrivals = on;
        self
    }

    /// Master seed for workload generation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Inert: the engine is single-threaded. Kept only because the frozen
    /// `benchmark/` package calls it; leaves with the next `benchmark` PR.
    #[doc(hidden)]
    pub fn threads(self, _n: usize) -> Self {
        self
    }

    /// Installs an update scheme via an explicit per-OSD constructor.
    pub fn scheme_fn<F>(mut self, make: F) -> Self
    where
        F: FnMut(usize) -> Box<dyn UpdateScheme> + 'static,
    {
        self.make = Some(Box::new(make));
        self
    }

    /// Installs an update scheme by registry name, handing `knobs` (the
    /// scenario's per-scheme object, or `serde::Value::Null`) to its
    /// factory along with the builder's current device class.
    ///
    /// # Errors
    /// Unknown names and rejected knobs surface as [`SchemeError`].
    pub fn scheme(
        mut self,
        registry: &SchemeRegistry,
        name: &str,
        knobs: serde::Value,
    ) -> Result<Self, SchemeError> {
        let params = SchemeParams {
            device: self.cfg.device,
            knobs,
        };
        self.make = Some(registry.instantiate(name, &params)?);
        Ok(self)
    }

    /// Installs a synthetic workload profile on every client after
    /// provisioning.
    pub fn workload(mut self, profile: &WorkloadProfile) -> Self {
        self.workload = Some(profile.clone());
        self
    }

    /// Caps every client at `n` issued ops (fixed-work runs).
    pub fn ops_per_client(mut self, n: u64) -> Self {
        self.ops_per_client = Some(n);
        self
    }

    /// Builds the cluster: provisions files, installs the workload, and
    /// applies the per-client op budget.
    ///
    /// # Panics
    /// Panics when no scheme was chosen ([`Self::scheme`] /
    /// [`Self::scheme_fn`]) or when the configuration is inconsistent
    /// (cluster smaller than the stripe width).
    pub fn build(self) -> Cluster {
        let make = self
            .make
            // INVARIANT: documented build() contract — a cluster cannot be
            // assembled without a scheme; the message names the fix.
            .expect("ClusterBuilder: no scheme chosen — call .scheme() or .scheme_fn()");
        let mut world = Cluster::new(self.cfg, make);
        if let Some(p) = &self.workload {
            world.set_workload(p);
        }
        if let Some(n) = self.ops_per_client {
            for c in &mut world.core.clients {
                c.max_ops = Some(n);
            }
        }
        world
    }
}
