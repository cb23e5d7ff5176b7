//! Event-loop I/O acceptance tests: the nonblocking connection engine
//! must answer fragmented, pipelined, oversized, and truncated input
//! exactly like the blocking reader used to — the incremental parser
//! is equivalence-tested against `read_request` in unit tests; here the
//! same cases run against a live server over real sockets.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use hgserve::{Format, Registry, ServerConfig, ServerHandle};
use hypergraph::HypergraphBuilder;

fn boot() -> (ServerHandle, String) {
    let registry = Arc::new(Registry::new());
    let mut b = HypergraphBuilder::new(4);
    b.add_edge([0, 1]);
    b.add_edge([1, 2]);
    b.add_edge([2, 3]);
    let text = hypergraph::io::write_hgr(&b.build());
    registry
        .insert_text("toy", Format::Hgr, &text, "event-loop test")
        .expect("preload dataset");
    let handle = hgserve::start(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("server boots");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn connect(addr: &str) -> TcpStream {
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    conn
}

/// Read exactly one `Content-Length`-framed response off the stream.
/// Bytes past the frame (the next pipelined response) stay in `carry`
/// for the following call.
fn read_response_carry(conn: &mut TcpStream, carry: &mut Vec<u8>) -> String {
    let mut raw = std::mem::take(carry);
    let mut buf = [0u8; 4096];
    loop {
        // Head complete?
        if let Some(head_end) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&raw[..head_end]).to_string();
            let content_length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("framed response")
                .trim()
                .parse()
                .expect("numeric content length");
            let body_have = raw.len() - (head_end + 4);
            if body_have >= content_length {
                let frame_end = head_end + 4 + content_length;
                *carry = raw.split_off(frame_end);
                return String::from_utf8_lossy(&raw).to_string();
            }
        }
        let n = conn.read(&mut buf).expect("read response bytes");
        assert!(n > 0, "connection closed mid-response: {raw:?}");
        raw.extend_from_slice(&buf[..n]);
    }
}

fn read_response(conn: &mut TcpStream) -> String {
    read_response_carry(conn, &mut Vec::new())
}

#[test]
fn byte_at_a_time_request_parses_and_answers_200() {
    let (handle, addr) = boot();
    let mut conn = connect(&addr);
    let request = b"GET /v1/toy/stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
    for &byte in request.iter() {
        conn.write_all(&[byte]).expect("write one byte");
        conn.flush().unwrap();
    }
    let raw = read_response(&mut conn);
    assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");
    assert!(raw.contains("\"vertices\":4"), "{raw}");
    assert!(raw.contains("Connection: close"), "{raw}");
    handle.shutdown();
}

#[test]
fn fragmented_post_body_is_reassembled() {
    let (handle, addr) = boot();
    let mut conn = connect(&addr);
    let head = b"POST /datasets?name=frag HTTP/1.1\r\nHost: x\r\nContent-Length: 8\r\n\r\n";
    let body = b"1 2\n1 2\n";
    conn.write_all(head).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    conn.write_all(&body[..3]).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    conn.write_all(&body[3..]).unwrap();
    let raw = read_response(&mut conn);
    assert!(raw.starts_with("HTTP/1.1 201 "), "{raw}");
    assert!(raw.contains("\"name\":\"frag\""), "{raw}");
    handle.shutdown();
}

#[test]
fn two_pipelined_requests_in_one_write_answer_in_order() {
    let (handle, addr) = boot();
    let mut conn = connect(&addr);
    conn.write_all(
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n\
          GET /v1/toy/stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    let mut carry = Vec::new();
    let first = read_response_carry(&mut conn, &mut carry);
    assert!(first.starts_with("HTTP/1.1 200 "), "{first}");
    assert!(first.contains("\"status\":\"ok\""), "{first}");
    assert!(first.contains("Connection: keep-alive"), "{first}");
    let second = read_response_carry(&mut conn, &mut carry);
    assert!(carry.is_empty(), "bytes past second response: {carry:?}");
    assert!(second.contains("\"vertices\":4"), "{second}");
    assert!(second.contains("Connection: close"), "{second}");
    // The server closes after the second response (Connection: close).
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty(), "unexpected trailing bytes: {rest:?}");
    handle.shutdown();
}

#[test]
fn oversized_headers_answer_431_and_close() {
    let (handle, addr) = boot();
    let mut conn = connect(&addr);
    conn.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    let filler = format!("X-Pad: {}\r\n", "y".repeat(120));
    // Never send the terminating blank line: the parser must reject on
    // size alone once the head can no longer fit.
    for _ in 0..200 {
        if conn.write_all(filler.as_bytes()).is_err() {
            break; // server already rejected and closed
        }
    }
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read 431");
    assert!(raw.starts_with("HTTP/1.1 431 "), "{raw}");
    assert!(raw.contains("Connection: close"), "{raw}");
    handle.shutdown();
}

#[test]
fn server_keeps_draining_input_after_431() {
    // A client may still be sending when the server rejects its head.
    // Closing the socket on unread input makes the kernel send a reset,
    // which can destroy the 431 before the client reads it. So after
    // the reply the server shuts only its write side and discards input
    // until the client closes: writes after the 431 keep succeeding.
    let (handle, addr) = boot();
    let mut conn = connect(&addr);
    let filler = format!("X-Pad: {}\r\n", "y".repeat(120));
    let oversized = format!("GET /healthz HTTP/1.1\r\n{}", filler.repeat(140));
    conn.write_all(oversized.as_bytes()).unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read 431 then EOF");
    assert!(raw.starts_with("HTTP/1.1 431 "), "{raw}");
    assert!(raw.contains("Connection: close"), "{raw}");
    for round in 0..3 {
        conn.write_all(filler.as_bytes())
            .unwrap_or_else(|e| panic!("write {round} after the 431: {e}"));
        // Time for a reset, had the server closed, to come back.
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();
}

#[test]
fn mid_request_fin_answers_400() {
    let (handle, addr) = boot();
    let mut conn = connect(&addr);
    conn.write_all(b"GET /v1/toy/stats HTT").unwrap();
    conn.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read 400");
    assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
    assert!(raw.contains("truncated request"), "{raw}");
    handle.shutdown();
}

#[test]
fn clean_fin_on_idle_connection_just_closes() {
    let (handle, addr) = boot();
    let mut conn = connect(&addr);
    // One complete exchange, then a clean client close with no partial
    // request buffered: the server must close without an error reply.
    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let first = read_response(&mut conn);
    assert!(first.starts_with("HTTP/1.1 200 "), "{first}");
    conn.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty(), "unexpected bytes after FIN: {rest:?}");
    handle.shutdown();
}
