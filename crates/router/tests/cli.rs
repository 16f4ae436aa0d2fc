//! `iloc-router` refuses an argument it does not declare instead of
//! skipping it.

use std::io::Read;
use std::net::TcpListener;
use std::process::{Command, ExitStatus, Stdio};
use std::thread;
use std::time::{Duration, Instant};

#[test]
fn a_misspelt_flag_exits_2_and_is_named() {
    // A valid node address nobody listens on: the flag check must come
    // before any dial.
    let node = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").to_string()
    };
    let mut child = Command::new(env!("CARGO_BIN_EXE_iloc-router"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--node",
            &node,
            "--evnt-loops",
            "2",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn iloc-router");
    let deadline = Instant::now() + Duration::from_secs(5);
    let status: ExitStatus = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("iloc-router --evnt-loops still running after 5 s");
        }
        thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert_eq!(status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--evnt-loops"), "stderr: {stderr}");
}
