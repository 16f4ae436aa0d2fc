//! `iloc-server` refuses an argument it does not declare: a misspelt
//! `--data-dir` must not start a server with no write-ahead log.

use std::io::Read;
use std::process::{Command, ExitStatus, Stdio};
use std::thread;
use std::time::{Duration, Instant};

#[test]
fn a_misspelt_flag_exits_2_and_is_named() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_iloc-server"))
        .args(["--quick", "--addr", "127.0.0.1:0", "--data-dri", "store"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn iloc-server");
    let deadline = Instant::now() + Duration::from_secs(5);
    let status: ExitStatus = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("iloc-server --data-dri still running after 5 s");
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
    assert!(stderr.contains("--data-dri"), "stderr: {stderr}");
}
