//! Protocol robustness: every malformed, hostile, or infeasible input gets
//! a typed error response — never a panic, never a silent drop.

use std::io::Write;
use std::net::{TcpListener, TcpStream};

use anet_service::{handle_connection, serve_tcp, Engine, EngineConfig};

fn engine() -> Engine {
    Engine::new(EngineConfig::default())
}

/// Runs `lines` through a loopback connection and returns the response
/// lines.
fn roundtrip(lines: &str, max_line: usize) -> Vec<String> {
    let engine = engine();
    let mut out: Vec<u8> = Vec::new();
    handle_connection(lines.as_bytes(), &mut out, &engine, max_line).expect("io ok");
    String::from_utf8(out)
        .expect("utf8 responses")
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn malformed_ndjson_gets_typed_parse_errors() {
    let input = "not json at all\n\
                 {\"id\":\"a\",\n\
                 [1,2,3]\n\
                 \"just a string\"\n\
                 {}\n";
    let responses = roundtrip(input, 1 << 16);
    assert_eq!(responses.len(), 5, "every line is answered");
    for (line, resp) in input.lines().zip(&responses) {
        assert!(
            resp.contains("\"ok\":false"),
            "line {line:?} must be refused: {resp}"
        );
        assert!(
            resp.contains("\"error\":\"parse\"") || resp.contains("\"error\":\"protocol\""),
            "line {line:?} must carry a typed error: {resp}"
        );
    }
}

#[test]
fn oversized_lines_are_discarded_with_a_typed_error_and_the_stream_recovers() {
    let huge = format!("{{\"id\":\"big\",\"edges\":[{}]}}", "[0,1],".repeat(4000));
    let input = format!("{huge}\n{{\"id\":\"after\",\"edges\":[[0,1],[1,2]]}}\n");
    let responses = roundtrip(&input, 1024);
    assert_eq!(responses.len(), 2);
    assert!(
        responses[0].contains("\"error\":\"oversized\""),
        "{}",
        responses[0]
    );
    assert!(
        responses[1].contains("\"id\":\"after\""),
        "{}",
        responses[1]
    );
    assert!(responses[1].contains("\"ok\":true"), "{}", responses[1]);
}

#[test]
fn unknown_names_get_their_own_error_kinds() {
    let input = "{\"id\":\"s\",\"edges\":[[0,1]],\"scheme\":\"warp_speed\"}\n\
                 {\"id\":\"w\",\"workload\":\"nonexistent(3)\"}\n\
                 {\"id\":\"c\",\"corpus\":\"no_such_instance\"}\n\
                 {\"id\":\"o\",\"op\":\"dance\"}\n\
                 {\"id\":\"m\",\"edges\":[[0,1]],\"faults\":{\"kind\":\"gremlins\"}}\n";
    let responses = roundtrip(input, 1 << 16);
    assert!(
        responses[0].contains("\"error\":\"unknown_scheme\""),
        "{}",
        responses[0]
    );
    assert!(
        responses[1].contains("\"error\":\"unknown_workload\""),
        "{}",
        responses[1]
    );
    assert!(
        responses[2].contains("\"error\":\"unknown_corpus\""),
        "{}",
        responses[2]
    );
    assert!(
        responses[3].contains("\"error\":\"protocol\""),
        "{}",
        responses[3]
    );
    assert!(
        responses[4].contains("\"error\":\"protocol\""),
        "{}",
        responses[4]
    );
}

#[test]
fn bad_graphs_and_degenerate_parameters_are_refused() {
    let input = "{\"id\":\"e\",\"edges\":[]}\n\
                 {\"id\":\"d\",\"edges\":[[0,1],[2,3]]}\n\
                 {\"id\":\"r\",\"edges\":[[0,1],[7,8]],\"n\":4}\n\
                 {\"id\":\"l\",\"edges\":[[0,0]]}\n\
                 {\"id\":\"big\",\"workload\":\"hypercube(20)\"}\n";
    let responses = roundtrip(input, 1 << 16);
    assert!(
        responses[0].contains("\"error\":\"bad_graph\""),
        "{}",
        responses[0]
    );
    assert!(
        responses[1].contains("\"error\":\"bad_graph\""),
        "{}",
        responses[1]
    );
    assert!(
        responses[2].contains("\"error\":\"bad_graph\""),
        "{}",
        responses[2]
    );
    assert!(
        responses[3].contains("\"error\":\"bad_graph\""),
        "{}",
        responses[3]
    );
    assert!(
        responses[4].contains("\"error\":\"too_large\""),
        "{}",
        responses[4]
    );
}

#[test]
fn generic_parameters_past_a_round_count_get_a_typed_error() {
    // lollipop(6,4) has diameter 5: Generic(x) needs D + x + 1 rounds,
    // which wraps for both parameters below and fits for 2^40.
    let input = "{\"id\":\"max\",\"workload\":\"lollipop(6,4)\",\
                   \"scheme\":\"generic(x=18446744073709551615)\"}\n\
                 {\"id\":\"near\",\"workload\":\"lollipop(6,4)\",\
                   \"scheme\":\"generic(x=18446744073709551610)\"}\n\
                 {\"id\":\"fits\",\"workload\":\"lollipop(6,4)\",\
                   \"scheme\":\"generic(x=1099511627776)\"}\n";
    let responses = roundtrip(input, 1 << 16);
    assert_eq!(responses.len(), 3);
    for resp in &responses[..2] {
        assert!(resp.contains("\"ok\":false"), "{resp}");
        assert!(resp.contains("\"error\":\"election\""), "{resp}");
    }
    assert!(
        responses[2].contains("\"time\":1099511627782"),
        "{}",
        responses[2]
    );
}

#[test]
fn infeasible_graphs_are_refused_with_the_evidence() {
    // A 6-ring: one view class, election infeasible by symmetry.
    let responses = roundtrip(
        "{\"id\":\"ring\",\"workload\":\"ring(6)\",\"scheme\":\"min_time\"}\n",
        1 << 16,
    );
    assert_eq!(responses.len(), 1);
    let resp = &responses[0];
    assert!(resp.contains("\"error\":\"infeasible\""), "{resp}");
    assert!(resp.contains("\"n\":6"), "{resp}");
    assert!(resp.contains("\"m\":6"), "{resp}");
    assert!(resp.contains("\"distinct_views\":1"), "{resp}");
}

#[test]
fn adversarial_runs_require_the_min_time_pipeline_and_sane_fault_fields() {
    let input = "{\"id\":\"a\",\"workload\":\"lollipop(5,2)\",\"scheme\":\"remark\",\
                   \"faults\":{\"kind\":\"phase_skew\",\"seed\":3}}\n\
                 {\"id\":\"b\",\"edges\":[[0,1]],\"faults\":{\"kind\":\"drops\",\"seed\":1,\
                   \"rate\":900,\"window\":2}}\n\
                 {\"id\":\"c\",\"edges\":[[0,1]],\"faults\":{\"kind\":\"crash\",\"node\":0,\
                   \"at\":5,\"recover_at\":2}}\n\
                 {\"id\":\"d\",\"workload\":\"lollipop(5,2)\",\"scheme\":\"min_time\",\
                   \"faults\":{\"kind\":\"crash\",\"node\":99,\"at\":1,\"recover_at\":3}}\n\
                 {\"id\":\"e\",\"edges\":[[0,1]],\"model\":\"raw\"}\n";
    let responses = roundtrip(input, 1 << 16);
    assert!(
        responses[0].contains("\"error\":\"unsupported\""),
        "{}",
        responses[0]
    );
    assert!(
        responses[1].contains("\"error\":\"protocol\""),
        "{}",
        responses[1]
    );
    assert!(
        responses[2].contains("\"error\":\"protocol\""),
        "{}",
        responses[2]
    );
    assert!(
        responses[3].contains("\"error\":\"protocol\""),
        "{}",
        responses[3]
    );
    assert!(
        responses[4].contains("\"error\":\"protocol\""),
        "{}",
        responses[4]
    );
}

#[test]
fn a_disconnect_mid_request_never_takes_the_daemon_down() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let engine = engine();
    std::thread::scope(|scope| {
        scope.spawn(|| serve_tcp(&listener, &engine, 1 << 16).expect("serve"));

        // A client that writes half a request and vanishes.
        {
            let mut rude = TcpStream::connect(addr).expect("connect");
            rude.write_all(b"{\"id\":\"half\",\"edges\":[[0,1],[1,")
                .expect("write");
            // Dropped here without a newline: mid-request disconnect.
        }

        // The daemon still answers a well-behaved client afterwards.
        let resp = anet_service::loadgen::send_one(
            &addr.to_string(),
            "{\"id\":\"ok\",\"edges\":[[0,1],[1,2]]}",
        )
        .expect("the daemon must survive the rude client");
        assert!(resp.contains("\"ok\":true"), "{resp}");

        let ack = anet_service::loadgen::send_one(
            &addr.to_string(),
            "{\"id\":\"bye\",\"op\":\"shutdown\"}",
        )
        .expect("shutdown");
        assert!(ack.contains("\"shutdown\":true"), "{ack}");
    });
}

#[test]
fn non_utf8_bytes_get_a_typed_error() {
    let engine = engine();
    let mut input: Vec<u8> = Vec::new();
    input.extend_from_slice(b"{\"id\":\"x\", \xFF\xFE }\n");
    input.extend_from_slice(b"{\"id\":\"y\",\"op\":\"ping\"}\n");
    let mut out: Vec<u8> = Vec::new();
    handle_connection(input.as_slice(), &mut out, &engine, 1 << 16).expect("io ok");
    let text = String::from_utf8(out).expect("utf8 responses");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].contains("\"error\":\"parse\""), "{}", lines[0]);
    assert!(lines[1].contains("\"pong\":true"), "{}", lines[1]);
}
