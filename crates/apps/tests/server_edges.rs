//! Edge-case behaviour of the guest servers: capacity limits, fragmented
//! and oversized requests, connection churn.

use dynacut_apps::{libc::guest_libc, lighttpd, nginx, redis, EVENT_READY};
use dynacut_vm::{Kernel, LoadSpec, Pid};

fn boot_redis() -> (Kernel, Pid) {
    let libc = guest_libc();
    let exe = redis::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(redis::CONFIG_PATH, &redis::config_file());
    let pid = kernel.spawn(&LoadSpec::with_libs(exe, vec![libc])).unwrap();
    kernel.run_until_event(EVENT_READY, 200_000_000).unwrap();
    (kernel, pid)
}

#[test]
fn redis_table_capacity_is_enforced() {
    let (mut kernel, pid) = boot_redis();
    let conn = kernel.client_connect(redis::PORT).unwrap();
    // Eight slots fill; the ninth key is rejected.
    for index in 0..8 {
        let cmd = format!("SET key{index} v\n");
        assert_eq!(
            kernel
                .client_request(conn, cmd.as_bytes(), 5_000_000)
                .unwrap(),
            b"+OK\n",
            "slot {index}"
        );
    }
    assert_eq!(
        kernel
            .client_request(conn, b"SET overflow v\n", 5_000_000)
            .unwrap(),
        b"-ERR full\n"
    );
    // Deleting frees a slot for reuse.
    assert_eq!(
        kernel
            .client_request(conn, b"DEL key3\n", 5_000_000)
            .unwrap(),
        b"+OK\n"
    );
    assert_eq!(
        kernel
            .client_request(conn, b"SET reused value\n", 5_000_000)
            .unwrap(),
        b"+OK\n"
    );
    assert_eq!(
        kernel
            .client_request(conn, b"GET reused\n", 5_000_000)
            .unwrap(),
        b"value\n"
    );
    assert!(kernel.exit_status(pid).is_none());
}

#[test]
fn redis_long_keys_and_values_are_truncated_not_fatal() {
    let (mut kernel, pid) = boot_redis();
    let conn = kernel.client_connect(redis::PORT).unwrap();
    let long_key = "k".repeat(40);
    let long_value = "v".repeat(100);
    let cmd = format!("SET {long_key} {long_value}\n");
    assert_eq!(
        kernel
            .client_request(conn, cmd.as_bytes(), 5_000_000)
            .unwrap(),
        b"+OK\n"
    );
    let get = format!("GET {long_key}\n");
    let reply = kernel
        .client_request(conn, get.as_bytes(), 5_000_000)
        .unwrap();
    // Value capped at the slot size (47 chars + newline).
    assert_eq!(reply.len(), 48);
    assert!(reply.starts_with(b"vvvv"));
    assert!(kernel.exit_status(pid).is_none());
}

#[test]
fn fragmented_requests_are_served_once_complete() {
    // The client writes the request in three fragments; the server's
    // first read picks up whatever has arrived. Sending fragments with
    // no kernel run in between coalesces them, like TCP.
    let libc = guest_libc();
    let exe = nginx::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(nginx::CONFIG_PATH, &nginx::config_file());
    kernel.spawn(&LoadSpec::with_libs(exe, vec![libc])).unwrap();
    kernel.run_until_event(EVENT_READY, 200_000_000).unwrap();
    let conn = kernel.client_connect(nginx::PORT).unwrap();
    kernel.client_send(conn, b"GET ").unwrap();
    kernel.client_send(conn, b"/index").unwrap();
    kernel.client_send(conn, b".html\n").unwrap();
    kernel.run_for(500_000);
    assert_eq!(kernel.client_recv(conn).unwrap(), nginx::RESP_200);
}

#[test]
fn rapid_connection_churn_is_handled() {
    let libc = guest_libc();
    let exe = lighttpd::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(lighttpd::CONFIG_PATH, &lighttpd::config_file());
    let pid = kernel.spawn(&LoadSpec::with_libs(exe, vec![libc])).unwrap();
    kernel.run_until_event(EVENT_READY, 200_000_000).unwrap();
    for round in 0..20 {
        let conn = kernel.client_connect(lighttpd::PORT).unwrap();
        let reply = kernel
            .client_request(conn, b"GET /churn\n", 5_000_000)
            .unwrap();
        assert_eq!(reply, nginx::RESP_200, "round {round}");
        kernel.client_close(conn).unwrap();
    }
    assert!(kernel.exit_status(pid).is_none());
}

#[test]
fn empty_and_garbage_requests_do_not_kill_servers() {
    let (mut kernel, pid) = boot_redis();
    let conn = kernel.client_connect(redis::PORT).unwrap();
    for garbage in [&b"\n"[..], b"    \n", b"\x00\x01\x02\n", b"GETGETGET\n"] {
        let reply = kernel.client_request(conn, garbage, 5_000_000).unwrap();
        assert!(!reply.is_empty(), "got an error reply for {garbage:?}");
    }
    assert!(kernel.exit_status(pid).is_none());
}

#[test]
fn two_clients_interleave_on_nginx() {
    // The single worker serves one connection at a time; a second client
    // is served after the first closes.
    let libc = guest_libc();
    let exe = nginx::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(nginx::CONFIG_PATH, &nginx::config_file());
    kernel.spawn(&LoadSpec::with_libs(exe, vec![libc])).unwrap();
    kernel.run_until_event(EVENT_READY, 200_000_000).unwrap();

    let first = kernel.client_connect(nginx::PORT).unwrap();
    let second = kernel.client_connect(nginx::PORT).unwrap();
    assert_eq!(
        kernel
            .client_request(first, b"GET /a\n", 5_000_000)
            .unwrap(),
        nginx::RESP_200
    );
    // While the worker sits on `first`, `second` waits in the backlog.
    kernel.client_send(second, b"HEAD /b\n").unwrap();
    kernel.run_for(200_000);
    assert!(kernel.client_recv(second).unwrap().is_empty());
    // Closing the first connection lets the worker accept the second.
    kernel.client_close(first).unwrap();
    kernel.run_for(500_000);
    assert_eq!(kernel.client_recv(second).unwrap(), nginx::RESP_200_HEAD);
}
