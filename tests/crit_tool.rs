//! Exercises the `crit` image-tool workflow: checkpoint a live server to
//! a file (the paper's tmpfs image directory), then inspect and round-trip
//! it through the CLI's library surface.

use dynacut_apps::{libc::guest_libc, redis, EVENT_READY};
use dynacut_criu::{dump_many, CheckpointImage, DumpOptions, PageKey};
use dynacut_vm::{Kernel, LoadSpec};

fn checkpoint_redis() -> CheckpointImage {
    let libc = guest_libc();
    let exe = redis::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(redis::CONFIG_PATH, &redis::config_file());
    let pid = kernel.spawn(&LoadSpec::with_libs(exe, vec![libc])).unwrap();
    kernel.run_until_event(EVENT_READY, 200_000_000).unwrap();
    kernel.freeze(pid).unwrap();
    dump_many(&mut kernel, &[pid], &DumpOptions::default()).unwrap()
}

/// The encoding and the `crit decode` text are pinned: redis, booted and
/// holding the connection it answered one SET on, dumps to the length
/// and 128-bit FNV-1a hashes recorded when the pages were still held in
/// memory as the on-disk pair. The encoding must not depend on the
/// in-memory form, and every guest step is deterministic, so any other
/// value is a codec or decoder change.
#[test]
fn checkpoint_encoding_matches_the_golden_bytes() {
    let libc = guest_libc();
    let exe = redis::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(redis::CONFIG_PATH, &redis::config_file());
    let pid = kernel.spawn(&LoadSpec::with_libs(exe, vec![libc])).unwrap();
    kernel.run_until_event(EVENT_READY, 200_000_000).unwrap();
    let conn = kernel.client_connect(6379).unwrap();
    assert_eq!(
        kernel
            .client_request(conn, b"SET k v\n", 5_000_000)
            .unwrap(),
        b"+OK\n"
    );
    kernel.freeze(pid).unwrap();
    let checkpoint = dump_many(&mut kernel, &[pid], &DumpOptions::default()).unwrap();
    let bytes = checkpoint.to_bytes();
    assert_eq!(checkpoint.procs[0].pages.len(), 167);
    assert_eq!(bytes.len(), 686_046);
    assert_eq!(
        PageKey::of(&bytes).to_string(),
        "page-4964294ee18054e4fba899c616784c4e"
    );
    assert_eq!(
        PageKey::of(checkpoint.decode_text().as_bytes()).to_string(),
        "page-084c17ba301c4901946cdbf3114262ce"
    );
}

#[test]
fn checkpoint_file_round_trips_through_disk() {
    let checkpoint = checkpoint_redis();
    let dir = std::env::temp_dir().join(format!("dynacut-crit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("redis.dcr");
    std::fs::write(&path, checkpoint.to_bytes()).unwrap();

    let raw = std::fs::read(&path).unwrap();
    let parsed = CheckpointImage::from_bytes(&raw).unwrap();
    assert_eq!(parsed, checkpoint);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn decode_text_describes_the_server() {
    let checkpoint = checkpoint_redis();
    let text = checkpoint.decode_text();
    assert!(text.contains("redis"));
    assert!(text.contains("listener :6379"));
    assert!(text.contains("r-x"), "text segment visible");
    assert!(text.contains("rw-"), "data segment visible");
    assert!(text.contains("[stack]"));
    // Module table names both binaries.
    assert!(text.contains("libc @"));
}

#[test]
fn checkpoint_summary_facts_are_consistent() {
    // The facts `crit info` prints must be internally consistent.
    let checkpoint = checkpoint_redis();
    assert_eq!(checkpoint.procs.len(), 1);
    let image = &checkpoint.procs[0];
    assert!(image.exec_pages_dumped, "DynaCut default dumps text pages");
    assert_eq!(
        checkpoint.pages_bytes(),
        image.pages.len() * dynacut_obj::PAGE_SIZE as usize
    );
    // The redis heap (160 pages) plus text/data dominates the image.
    assert!(image.pages.len() > 160);
    // Every fd the files image lists decodes to something printable.
    assert!(image
        .files
        .fds
        .iter()
        .any(|(_, fd)| matches!(fd, dynacut_criu::FdImage::Listener { port: 6379 })));
}
