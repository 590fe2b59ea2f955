//! Booting the guest workloads and driving them with client traffic.

use dynacut_apps::{libc::guest_libc, lighttpd, nginx, redis, spec, EVENT_READY};
use dynacut_criu::ModuleRegistry;
use dynacut_obj::Image;
use dynacut_trace::Tracer;
use dynacut_vm::{Kernel, LoadSpec, Pid};
use std::sync::Arc;

/// A booted guest application plus everything the harness needs to
/// customize it.
pub struct Workload {
    /// The kernel the application runs in.
    pub kernel: Kernel,
    /// Application pids (master first for Nginx).
    pub pids: Vec<Pid>,
    /// The application binary.
    pub exe: Arc<Image>,
    /// Registry with the binary and its libraries.
    pub registry: ModuleRegistry,
    /// Installed tracer, if requested.
    pub tracer: Option<Tracer>,
    /// Application port (0 for SPEC programs).
    pub port: u16,
}

/// Which server to boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Server {
    /// The multi-process web server.
    Nginx,
    /// The single-process web server.
    Lighttpd,
    /// The key-value store.
    Redis,
}

impl Server {
    /// Application module name.
    pub fn module(self) -> &'static str {
        match self {
            Server::Nginx => nginx::MODULE,
            Server::Lighttpd => lighttpd::MODULE,
            Server::Redis => redis::MODULE,
        }
    }

    /// Listening port.
    pub fn port(self) -> u16 {
        match self {
            Server::Nginx => nginx::PORT,
            Server::Lighttpd => lighttpd::PORT,
            Server::Redis => redis::PORT,
        }
    }
}

/// Boots a server, optionally under the coverage tracer, and runs it to
/// the end of its initialization phase (the `EVENT_READY` marker).
pub fn boot_server(server: Server, with_tracer: bool) -> Workload {
    let libc = guest_libc();
    let (exe, config_path, config): (Image, &str, Vec<u8>) = match server {
        Server::Nginx => (
            nginx::image(&libc),
            nginx::CONFIG_PATH,
            nginx::config_file(),
        ),
        Server::Lighttpd => (
            lighttpd::image(&libc),
            lighttpd::CONFIG_PATH,
            lighttpd::config_file(),
        ),
        Server::Redis => (
            redis::image(&libc),
            redis::CONFIG_PATH,
            redis::config_file(),
        ),
    };
    let mut kernel = Kernel::new();
    kernel.add_file(config_path, &config);
    let tracer = with_tracer.then(|| Tracer::install(&mut kernel));
    let spec = LoadSpec::with_libs(exe, vec![libc]);
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::clone(&spec.exe));
    for lib in &spec.libs {
        registry.insert(Arc::clone(lib));
    }
    let exe = Arc::clone(&spec.exe);
    let first = kernel.spawn(&spec).expect("spawn");
    if let Some(tracer) = &tracer {
        tracer.track(&kernel, first).expect("track");
    }
    kernel
        .run_until_event(EVENT_READY, 500_000_000)
        .expect("server initializes");
    let mut pids = kernel.pids();
    pids.retain(|&pid| kernel.exit_status(pid).is_none());
    // Track any forked workers too.
    if let Some(tracer) = &tracer {
        for &pid in &pids {
            let _ = tracer.track(&kernel, pid);
        }
    }
    Workload {
        kernel,
        pids,
        exe,
        registry,
        tracer,
        port: server.port(),
    }
}

/// A fleet of identical server replicas sharing one kernel: the target
/// of [`dynacut::DynaCut::customize_fleet`].
pub struct FleetWorkload {
    /// The kernel every replica runs in.
    pub kernel: Kernel,
    /// One process group per replica (single-pid groups for Redis).
    pub groups: Vec<Vec<Pid>>,
    /// The shared application binary.
    pub exe: Arc<Image>,
    /// Registry with the binary and its libraries.
    pub registry: ModuleRegistry,
    /// The shared listening port.
    pub port: u16,
}

impl FleetWorkload {
    /// Every replica pid, flattened.
    pub fn pids(&self) -> Vec<Pid> {
        self.groups.iter().flatten().copied().collect()
    }

    /// Sends one request into the shared listener backlog and returns
    /// the reply (empty on timeout). Whichever unfrozen replica accepts
    /// first serves it.
    pub fn request(&mut self, bytes: &[u8]) -> Vec<u8> {
        let conn = self
            .kernel
            .client_connect(self.port)
            .expect("fleet listening");
        let reply = self
            .kernel
            .client_request(conn, bytes, 10_000_000)
            .expect("request");
        let _ = self.kernel.client_close(conn);
        reply
    }
}

/// Boots `replicas` identical Redis replicas into one kernel. All bind
/// the same port — the simulated stack models an `SO_REUSEPORT`-style
/// shared backlog, so any runnable replica accepts — and each runs to
/// its `EVENT_READY` marker before the next is spawned. Just-booted
/// replicas of the same binary have near-identical page contents, which
/// is what the content-addressed checkpoint store dedups across.
pub fn boot_fleet(replicas: usize) -> FleetWorkload {
    assert!(replicas > 0, "fleet needs at least one replica");
    let libc = guest_libc();
    let exe = redis::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(redis::CONFIG_PATH, &redis::config_file());
    let spec = LoadSpec::with_libs(exe, vec![libc]);
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::clone(&spec.exe));
    for lib in &spec.libs {
        registry.insert(Arc::clone(lib));
    }
    let exe = Arc::clone(&spec.exe);
    let mut groups = Vec::with_capacity(replicas);
    for _ in 0..replicas {
        let pid = kernel.spawn(&spec).expect("spawn replica");
        // Waiting per replica keeps the ready markers unambiguous (one
        // run_until_event call per emission).
        kernel
            .run_until_event(EVENT_READY, 500_000_000)
            .expect("replica initializes");
        groups.push(vec![pid]);
    }
    FleetWorkload {
        kernel,
        groups,
        exe,
        registry,
        port: redis::PORT,
    }
}

/// Boots one SPEC analogue under the tracer and runs its init phase.
pub fn boot_spec(program: &spec::SpecProgram) -> Workload {
    let libc = guest_libc();
    let exe = program.image(&libc);
    let mut kernel = Kernel::new();
    let tracer = Tracer::install(&mut kernel);
    let load = LoadSpec::with_libs(exe, vec![libc]);
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::clone(&load.exe));
    for lib in &load.libs {
        registry.insert(Arc::clone(lib));
    }
    let exe = Arc::clone(&load.exe);
    let pid = kernel.spawn(&load).expect("spawn");
    tracer.track(&kernel, pid).expect("track");
    kernel
        .run_until_event(EVENT_READY, 2_000_000_000)
        .expect("spec program initializes");
    Workload {
        kernel,
        pids: vec![pid],
        exe,
        registry,
        tracer: Some(tracer),
        port: 0,
    }
}

impl Workload {
    /// Sends one request and returns the reply (empty on timeout).
    pub fn request(&mut self, bytes: &[u8]) -> Vec<u8> {
        let conn = self
            .kernel
            .client_connect(self.port)
            .expect("server listening");
        let reply = self
            .kernel
            .client_request(conn, bytes, 10_000_000)
            .expect("request");
        let _ = self.kernel.client_close(conn);
        reply
    }

    /// Exercises the "wanted" workload on a web server: a batch of GET and
    /// HEAD requests. Each request uses a **fresh connection** so the
    /// accept and connection-close code paths are part of the training
    /// coverage — the paper's over-elimination caveat (§3.2.3) applies
    /// verbatim if they are not.
    pub fn exercise_http_read_workload(&mut self, requests: usize) {
        for index in 0..requests {
            let request = if index % 2 == 0 {
                format!("GET /page{index}\n")
            } else {
                format!("HEAD /page{index}\n")
            };
            let reply = self.request(request.as_bytes());
            assert!(!reply.is_empty(), "server answered");
        }
    }

    /// Exercises every HTTP method the server supports (the "wanted
    /// features = everything" training set used by the init-code-removal
    /// experiments, where only *temporally* dead code should go).
    pub fn exercise_http_full_workload(&mut self, rounds: usize) {
        let nginx_only = self.port == dynacut_apps::nginx::PORT;
        for round in 0..rounds {
            let mut requests: Vec<String> = vec![
                format!("GET /r{round}\n"),
                format!("HEAD /r{round}\n"),
                format!("PUT /r{round} body"),
                format!("DELETE /r{round}"),
                "BREW /\n".to_owned(), // exercises the 405 path
            ];
            if nginx_only {
                requests.push(format!("MKCOL /d{round}"));
                requests.push("PROPFIND /\n".to_owned());
            }
            for request in requests {
                let reply = self.request(request.as_bytes());
                assert!(!reply.is_empty(), "server answered {request:?}");
            }
        }
    }

    /// Exercises Redis with GET/SET traffic (fresh connection per
    /// request, as above).
    pub fn exercise_redis_workload(&mut self, requests: usize) {
        for index in 0..requests {
            let request = match index % 3 {
                0 => format!("SET key{} v{}\n", index % 8, index),
                1 => format!("GET key{}\n", index % 8),
                _ => "PING\n".to_owned(),
            };
            let reply = self.request(request.as_bytes());
            assert!(!reply.is_empty());
        }
    }
}
