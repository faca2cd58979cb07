//! Front ends: stdin/stdout session and a line-delimited TCP listener.
//!
//! Both speak the same protocol ([`crate::proto`]): one request per input
//! line, one response event per output line, with progress and completion
//! events interleaved as they happen. Each session has exactly one writer
//! thread draining a channel, so concurrent events never interleave bytes
//! within a line.
//!
//! Shutdown: the engine honours the process-wide flag raised by
//! `ffw_fault::install_shutdown_handler`. The serve loops poll that flag a
//! few times per millisecond-scale tick and, on SIGTERM/SIGINT, put the
//! engine into fast-drain (running jobs checkpoint and park; queued jobs
//! stay journaled) before exiting. Reader threads blocked on `stdin`/
//! `accept` cannot be interrupted portably, so they are detached and the
//! process exits without them once the engine has drained.

use crate::engine::Engine;
use crate::proto::{self, Request};
use crossbeam_channel::{unbounded, Receiver, Sender};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Longest request line read, in bytes. The longest valid spec is under
/// 1 KiB; a longer line is discarded without buffering more than this, so
/// no allocation is sized by what a client sends.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// One read from a request stream.
#[derive(Debug, PartialEq)]
enum Input {
    /// A line, its newline removed.
    Line(String),
    /// A line longer than [`MAX_REQUEST_LINE`], read to its newline and
    /// dropped.
    TooLong,
}

/// Reads the next request line into `buf`, which never holds more than
/// [`MAX_REQUEST_LINE`] + 1 bytes. `Ok(None)` at the end of input; a last
/// line without a newline is still a line. Bytes that are not UTF-8 are an
/// `InvalidData` error, as with `BufRead::lines`.
fn read_request(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<Option<Input>> {
    buf.clear();
    let limit = MAX_REQUEST_LINE as u64 + 1;
    if reader.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_REQUEST_LINE {
        skip_line(reader)?;
        return Ok(Some(Input::TooLong));
    }
    let line = String::from_utf8(std::mem::take(buf))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(Some(Input::Line(line)))
}

/// Consumes input up to and including the next newline, a buffer at a time.
fn skip_line(reader: &mut impl BufRead) -> io::Result<()> {
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(());
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(at) => {
                reader.consume(at + 1);
                return Ok(());
            }
            None => {
                let n = available.len();
                reader.consume(n);
            }
        }
    }
}

/// How a finished serve loop exited.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeExit {
    /// Input ended (EOF) or a `drain` request completed.
    Drained,
    /// SIGTERM/SIGINT: in-flight work checkpointed and parked.
    Interrupted,
}

/// Dispatches one parsed request line to the engine.
fn dispatch(engine: &Engine, line: &str, reply: &Sender<String>) {
    match proto::parse_request(line) {
        Ok(Request::Submit(job)) => engine.submit(&job, reply.clone()),
        Ok(Request::Cancel(id)) => engine.cancel(&id, reply),
        Ok(Request::Status) => engine.status(reply),
        Ok(Request::Drain) => {
            engine.drain(false);
            let _ = reply.send(proto::draining());
        }
        Err(e) => {
            let _ = reply.send(proto::error(&e));
        }
    }
}

/// Answers one read from a request stream: a line is dispatched (blank lines
/// are skipped), an over-long one gets a single `error` frame.
fn handle(engine: &Engine, input: Input, reply: &Sender<String>) {
    match input {
        Input::Line(line) => {
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                dispatch(engine, trimmed, reply);
            }
        }
        Input::TooLong => {
            let detail = format!("request line longer than {MAX_REQUEST_LINE} bytes; discarded");
            let _ = reply.send(proto::error(&detail));
        }
    }
}

/// Runs a stdin/stdout session until EOF, drain completion, or shutdown.
///
/// With `once`, the loop also ends as soon as every submitted job reaches a
/// terminal state after input EOF — the mode the chaos harness and the
/// quickstart use (`ffw-serve --once < jobs.jsonl`).
pub fn serve_stdio(engine: Arc<Engine>, once: bool) -> ServeExit {
    let (reply_tx, reply_rx) = unbounded::<String>();
    let writer = {
        // lint:spawn-ok single writer thread serializing response lines to stdout
        std::thread::spawn(move || {
            let stdout = std::io::stdout();
            while let Ok(line) = reply_rx.recv() {
                let mut out = stdout.lock();
                if writeln!(out, "{line}").and_then(|_| out.flush()).is_err() {
                    return;
                }
            }
        })
    };

    // The reader thread forwards stdin lines; it cannot be woken by a
    // signal, so the main loop polls the shutdown flag independently.
    let (line_tx, line_rx) = unbounded::<Input>();
    {
        // lint:spawn-ok blocking stdin reader; the main loop must stay free to observe SIGTERM
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            let (mut reader, mut buf) = (BufReader::new(stdin.lock()), Vec::new());
            while let Ok(Some(input)) = read_request(&mut reader, &mut buf) {
                if line_tx.send(input).is_err() {
                    return;
                }
            }
        });
    }

    let exit = pump(&engine, &line_rx, &reply_tx, once);
    // Job entries hold reply-sender clones; release them so the writer's
    // channel disconnects once the remaining lines are drained.
    engine.release_replies();
    drop(reply_tx);
    let _ = writer.join();
    exit
}

/// The shared serve loop: dispatch incoming lines, watch for shutdown,
/// and (with `once`) finish when input has ended and the engine is idle.
fn pump(engine: &Engine, lines: &Receiver<Input>, reply: &Sender<String>, once: bool) -> ServeExit {
    let mut input_done = false;
    loop {
        if ffw_fault::shutdown_requested() {
            engine.drain(true);
            let _ = reply.send(proto::draining());
            engine.join();
            return ServeExit::Interrupted;
        }
        match lines.try_recv() {
            Ok(input) => {
                handle(engine, input, reply);
                continue;
            }
            Err(crossbeam_channel::TryRecvError::Empty) => {}
            Err(crossbeam_channel::TryRecvError::Disconnected) => input_done = true,
        }
        if input_done && once && engine.idle() {
            engine.drain(false);
            engine.join();
            return ServeExit::Drained;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Runs the TCP listener until shutdown. Each connection gets its own
/// session (reader + single writer), all sharing one engine — the
/// multi-tenant mode.
pub fn serve_tcp(engine: Arc<Engine>, listener: TcpListener) -> ServeExit {
    listener
        .set_nonblocking(true)
        .expect("set_nonblocking on listener");
    loop {
        if ffw_fault::shutdown_requested() {
            engine.drain(true);
            engine.join();
            return ServeExit::Interrupted;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let engine = Arc::clone(&engine);
                // lint:spawn-ok one session thread per client connection
                std::thread::spawn(move || session(engine, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return ServeExit::Drained,
        }
    }
}

fn session(engine: Arc<Engine>, stream: TcpStream) {
    let (reply_tx, reply_rx) = unbounded::<String>();
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    // lint:spawn-ok single writer thread per connection
    let writer = std::thread::spawn(move || {
        let mut out = write_half;
        while let Ok(line) = reply_rx.recv() {
            if writeln!(out, "{line}").is_err() {
                return;
            }
        }
    });
    serve_requests(&engine, BufReader::new(stream), &reply_tx);
    drop(reply_tx);
    let _ = writer.join();
}

/// Answers every request read from `reader` until it ends or fails.
fn serve_requests(engine: &Engine, mut reader: impl BufRead, reply: &Sender<String>) {
    let mut buf = Vec::new();
    while let Ok(Some(input)) = read_request(&mut reader, &mut buf) {
        handle(engine, input, reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use std::io::Cursor;

    fn read_all(bytes: Vec<u8>) -> Vec<Input> {
        let (mut reader, mut buf) = (Cursor::new(bytes), Vec::new());
        let mut inputs = Vec::new();
        while let Some(input) = read_request(&mut reader, &mut buf).expect("in-memory read") {
            assert!(
                buf.capacity() <= 2 * (MAX_REQUEST_LINE + 1),
                "buffer grew past the cap"
            );
            inputs.push(input);
        }
        inputs
    }

    #[test]
    fn lines_up_to_the_cap_are_read_and_longer_ones_are_skipped_whole() {
        let at_cap = "a".repeat(MAX_REQUEST_LINE);
        let mut bytes = Vec::new();
        for line in [
            &at_cap,
            &"b".repeat(MAX_REQUEST_LINE + 1),
            "ok",
            &"c".repeat(5 * MAX_REQUEST_LINE),
        ] {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        }
        bytes.extend_from_slice(b"last, without a newline");
        assert_eq!(
            read_all(bytes),
            [
                Input::Line(at_cap),
                Input::TooLong,
                Input::Line("ok".into()),
                Input::TooLong,
                Input::Line("last, without a newline".into()),
            ]
        );
        // an over-long line cut off by the end of input
        assert_eq!(read_all(vec![b'd'; MAX_REQUEST_LINE + 2]), [Input::TooLong]);
    }

    /// A client that never sends a newline costs one `error` frame, and the
    /// session goes on: the submit after it is accepted.
    #[test]
    fn an_over_long_line_is_one_error_and_the_session_continues() {
        let dir = std::env::temp_dir().join(format!("ffw-serve-lines-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::open(ServeConfig::new(dir.clone())).expect("open");
        let mut bytes = vec![b'{'; 3 * MAX_REQUEST_LINE];
        bytes.extend_from_slice(b"\n");
        bytes.extend_from_slice(
            br#"{"op":"submit","job":{"id":"after","size":32,"tx":2,"rx":4,"iterations":1}}"#,
        );
        bytes.extend_from_slice(b"\n");
        let (reply_tx, reply_rx) = unbounded();
        serve_requests(&engine, Cursor::new(bytes), &reply_tx);
        let first = reply_rx.recv().expect("a reply to the long line");
        assert!(first.contains(r#""ev":"error""#), "{first}");
        let second = reply_rx.recv().expect("a reply to the submit");
        assert!(second.contains(r#""ev":"accepted""#), "{second}");
        engine.drain(true);
        engine.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
