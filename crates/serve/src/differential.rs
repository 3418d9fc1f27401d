//! The reactor's differential test: the event loop over real sockets
//! must put on the wire exactly the bytes of `proto::encode_response`
//! applied to what the pure router ([`crate::respond`]) answers a twin
//! service fed the same request sequence — for every endpoint, every
//! wrapper language and several worker counts. Requests the head parser
//! rejects are compared against the encoding of that rejection.
//!
//! The only tolerated divergence is wall-clock state in `GET /wrappers`
//! (the `latency` object and `parse.micros`), normalized through a JSON
//! parse before comparison.

use crate::proto::{encode_response, parse_head, HeadParse};
use crate::{respond, Request, Response, Server};
use aw_core::{
    CompiledWrapper, ExtractionService, LearnedRule, WrapperBundle, WrapperLanguage,
    WrapperRegistry,
};
use aw_induct::{NodeSet, Site};
use aw_pool::Executor;
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn wrapper_in(language: WrapperLanguage) -> CompiledWrapper {
    let site = Site::from_html(&[
        "<table class='stores'><tr><td><b>ALPHA CO</b></td><td>1 Elm</td></tr>\
         <tr><td><b>BETA LLC</b></td><td>2 Oak</td></tr></table>",
        "<table class='stores'><tr><td><b>GAMMA INC</b></td><td>3 Fir</td></tr>\
         <tr><td><b>DELTA LTD</b></td><td>4 Ash</td></tr></table>",
    ]);
    let mut labels = NodeSet::new();
    labels.extend(site.find_text("ALPHA CO"));
    labels.extend(site.find_text("DELTA LTD"));
    CompiledWrapper::from_rule(LearnedRule::learn(&site, language, &labels))
}

fn service_in(language: WrapperLanguage) -> Arc<ExtractionService> {
    let registry = Arc::new(WrapperRegistry::new());
    registry.insert("dealers", wrapper_in(language));
    Arc::new(ExtractionService::new(registry).with_executor(Executor::new(2)))
}

/// Sends raw bytes on a fresh connection and reads the raw reply to
/// EOF.
fn raw_roundtrip(addr: &SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("send");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("receive");
    reply
}

/// Frames one `Connection: close` request.
fn framed(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// What the reactor must send for `raw`: the router's answer from
/// `twin`, or the head parser's rejection, framed with close semantics
/// (every request in the sequence closes its connection).
fn expected(twin: &ExtractionService, raw: &[u8]) -> Vec<u8> {
    let response = match parse_head(raw, 0) {
        HeadParse::Ready(head) => {
            let request = Request {
                method: head.method,
                path: head.path,
                body: raw[head.head_len..head.head_len + head.content_length].to_vec(),
            };
            respond(twin, &request)
        }
        HeadParse::Error(status, message) => Response::error(status, message),
        HeadParse::Incomplete { .. } => panic!("test request is incomplete: {raw:?}"),
    };
    encode_response(&response, false, None)
}

const PAGE: &str =
    "<table class='stores'><tr><td><b>OMEGA GROUP</b></td><td>9 Elm</td></tr></table>";

/// The request sequence replayed against the reactor and the twin:
/// every endpoint, the error surfaces, and raw protocol violations.
/// Order matters — requests mutate health counters and the registry,
/// and both services must walk the same state trajectory.
fn request_sequence() -> Vec<(&'static str, Vec<u8>)> {
    let extract_one = format!(r#"{{"site":"dealers","html":"{PAGE}"}}"#);
    let extract_many = format!(r#"{{"site":"dealers","pages":["{PAGE}","<p>none</p>",""]}}"#);
    let swap_bundle = {
        let mut bundle = WrapperBundle::new();
        bundle.insert("swapped", wrapper_in(WrapperLanguage::XPath));
        bundle.to_json()
    };
    vec![
        ("healthz", framed("GET", "/healthz", "")),
        ("extract one", framed("POST", "/extract", &extract_one)),
        ("extract many", framed("POST", "/extract", &extract_many)),
        ("site health", framed("GET", "/health/dealers", "")),
        ("all health", framed("GET", "/health", "")),
        ("wrappers", framed("GET", "/wrappers", "")),
        ("unknown site", framed("POST", "/extract", r#"{"site":"zz","html":"x"}"#)),
        ("unknown path", framed("GET", "/nope", "")),
        ("bad method", framed("DELETE", "/extract", "")),
        ("bad body", framed("POST", "/extract", "garbage")),
        ("hot swap", framed("POST", "/wrappers", &swap_bundle)),
        ("post-swap extract", framed("POST", "/extract", &extract_one)),
        ("post-swap wrappers", framed("GET", "/wrappers", "")),
        ("malformed line", b"BOGUS\r\n\r\n".to_vec()),
        (
            "chunked refused",
            b"POST /extract HTTP/1.1\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
                .to_vec(),
        ),
        (
            "oversized declared body",
            b"POST /wrappers HTTP/1.1\r\nContent-Length: 104857600\r\nConnection: close\r\n\r\nxxxx"
                .to_vec(),
        ),
    ]
}

/// Blanks the wall-clock parts of a `/wrappers` reply (the `latency`
/// object and `parse.micros`) and drops the Content-Length they change,
/// so the remaining bytes admit exact comparison.
fn normalize_wrappers(reply: &[u8]) -> String {
    let text = String::from_utf8(reply.to_vec()).expect("wrappers reply is UTF-8");
    let (head, body) = text.split_once("\r\n\r\n").expect("framed reply");
    let Value::Object(mut entries) = serde_json::from_str(body).expect("wrappers body is JSON")
    else {
        panic!("wrappers body is not an object: {body}");
    };
    for (key, value) in &mut entries {
        match (key.as_str(), value) {
            ("latency", value) => *value = Value::Null,
            ("parse", Value::Object(fields)) => fields.retain(|(field, _)| field != "micros"),
            _ => {}
        }
    }
    let head: Vec<&str> = head
        .split("\r\n")
        .filter(|line| !line.starts_with("Content-Length"))
        .collect();
    let body = serde_json::to_string(&Value::Object(entries)).expect("re-encodes");
    format!("{}\n{body}", head.join("\n"))
}

#[test]
fn reactor_is_byte_identical_to_the_router_oracle() {
    for language in WrapperLanguage::ALL {
        for workers in [1usize, 3] {
            let reactor = Server::bind(service_in(language), "127.0.0.1:0")
                .expect("bind reactor")
                .workers(workers)
                .start()
                .expect("start reactor");
            let twin = service_in(language);
            for (label, request) in request_sequence() {
                let from_reactor = raw_roundtrip(&reactor.addr(), &request);
                let from_oracle = expected(&twin, &request);
                if label.contains("wrappers") && request.starts_with(b"GET") {
                    assert_eq!(
                        normalize_wrappers(&from_reactor),
                        normalize_wrappers(&from_oracle),
                        "{language:?}/{workers} workers: {label} diverged"
                    );
                } else {
                    assert_eq!(
                        String::from_utf8_lossy(&from_reactor),
                        String::from_utf8_lossy(&from_oracle),
                        "{language:?}/{workers} workers: {label} diverged"
                    );
                }
            }
            reactor.shutdown();
        }
    }
}
