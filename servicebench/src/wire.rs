//! The server under test as a child process, and the lock-step
//! connections that drive it.

use rd_core::Value;
use rd_server::protocol::{decode_frame, Response};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `rd serve`.
pub struct Server {
    child: Child,
    pub addr: String,
}

/// How to start the server: the binary, its flags, and where it logs.
#[derive(Debug, Clone)]
pub struct Launch {
    pub rd: PathBuf,
    pub args: Vec<String>,
    pub port_file: PathBuf,
    pub log_file: PathBuf,
}

impl Launch {
    /// `rd serve` on an ephemeral port over the fixture `db`, with the
    /// workload's extra `flags`.
    pub fn new(rd: &Path, run_dir: &Path, db: &Path, flags: &[String]) -> Launch {
        let port_file = run_dir.join("port");
        let mut args: Vec<String> = ["serve", "--addr", "127.0.0.1:0", "--port-file"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        args.push(port_file.display().to_string());
        args.push("--db".into());
        args.push(db.display().to_string());
        args.extend(flags.iter().cloned());
        Launch {
            rd: rd.to_path_buf(),
            args,
            port_file,
            log_file: run_dir.join("server.log"),
        }
    }

    /// The flags as recorded in the run record (paths left out).
    pub fn flags_for_record(&self, flags: &[String]) -> Vec<String> {
        let mut out = vec!["--addr".to_string(), "127.0.0.1:0".into()];
        let mut it = flags.iter();
        while let Some(f) = it.next() {
            out.push(f.clone());
            if f == "--data-dir" {
                it.next();
                out.push("<run dir>/data".into());
            }
        }
        out
    }

    /// Starts the server and waits until it has published its address.
    pub fn start(&self) -> io::Result<Server> {
        let _ = std::fs::remove_file(&self.port_file);
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.log_file)?;
        let mut child = Command::new(&self.rd)
            .args(&self.args)
            .stdin(Stdio::null())
            .stdout(log.try_clone()?)
            .stderr(log)
            .spawn()?;
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Ok(addr) = std::fs::read_to_string(&self.port_file) {
                if !addr.is_empty() {
                    return Ok(Server {
                        child,
                        addr: addr.trim().to_string(),
                    });
                }
            }
            if let Some(status) = child.try_wait()? {
                return Err(io::Error::other(format!(
                    "rd serve exited during start-up ({status}); see {}",
                    self.log_file.display()
                )));
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("rd serve did not publish its port"));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

impl Server {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kb / 1024.0)
    }

    /// SIGKILL, then reap.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Asks the server to shut down and waits for it; kills it if it
    /// has not exited after 30 s.
    pub fn shutdown(mut self) {
        if let Ok(mut c) = rd_server::Client::connect(self.addr.as_str()) {
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.kill();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One lock-step connection: a request line out, its frames back.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// The raw frames answering one request.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    pub frames: Vec<String>,
}

impl Reply {
    pub fn bytes(&self) -> usize {
        self.frames.iter().map(|f| f.len() + 1).sum()
    }

    /// FNV-1a over every frame.
    pub fn hash(&self) -> u64 {
        fnv(self.frames.iter().flat_map(|f| f.bytes().chain([b'\n'])))
    }
}

pub fn fnv(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const CHUNK_PREFIX: &str = "{\"ok\":true,\"kind\":\"rows-chunk\"";

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(150)))?;
        Ok(Conn {
            reader: BufReader::new(s.try_clone()?),
            writer: s,
        })
    }

    /// Sends one request line and reads every frame answering it (a
    /// streamed result is a run of `rows-chunk` frames closed by
    /// `rows-end`).
    pub fn call(&mut self, line: &str) -> io::Result<Reply> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.writer.write_all(&out)?;
        let mut reply = Reply::default();
        loop {
            let mut frame = String::new();
            if self.reader.read_line(&mut frame)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            frame.truncate(frame.trim_end().len());
            let more = frame.starts_with(CHUNK_PREFIX);
            reply.frames.push(frame);
            if !more {
                return Ok(reply);
            }
        }
    }
}

/// What a reply means.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Query rows (reassembled if streamed).
    Rows(Vec<Vec<Value>>),
    /// A mutation: rows applied.
    Mutation(u64),
    /// A checkpoint (or any other success without rows).
    Done,
    /// An error frame or an undecodable reply.
    Error(String),
}

pub fn decode_reply(reply: &Reply) -> Outcome {
    let mut rows = Vec::new();
    for frame in &reply.frames {
        match decode_frame(frame) {
            Ok((_, Response::Query(q))) => return Outcome::Rows(q.rows),
            Ok((_, Response::RowsChunk(c))) => rows.extend(c.rows),
            Ok((_, Response::RowsEnd(_))) => return Outcome::Rows(std::mem::take(&mut rows)),
            Ok((_, Response::Mutation(m))) => return Outcome::Mutation(m.applied),
            Ok((_, Response::Error(e))) => return Outcome::Error(e),
            Ok(_) => return Outcome::Done,
            Err(e) => return Outcome::Error(e),
        }
    }
    Outcome::Error("reply ended inside a streamed result".into())
}

/// An order-insensitive digest of result rows in edge form.
pub fn rows_digest<'a>(rows: impl Iterator<Item = Vec<&'a Value>>) -> u64 {
    let mut rendered: Vec<String> = rows
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Int(i) => format!("i{i}"),
                    Value::Str(s) => format!("s{s}"),
                    Value::Sym(id) => format!("y{id}"),
                })
                .collect::<Vec<_>>()
                .join("\u{1f}")
        })
        .collect();
    rendered.sort_unstable();
    fnv(rendered.iter().flat_map(|r| r.bytes().chain([0x1e]))) ^ rendered.len() as u64
}

pub fn wire_digest(rows: &[Vec<Value>]) -> u64 {
    rows_digest(rows.iter().map(|r| r.iter().collect()))
}
