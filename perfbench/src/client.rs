//! A minimal HTTP/1.1 keep-alive client and the closed-loop load driver.
//!
//! The client is the benchmark's own, so a change to the program's HTTP
//! client code cannot move the numbers that judge it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::mix::Mix;
use crate::stats::digest32;

/// One response: status, body, and the `x-prophet-trace` id it carried.
pub struct Resp {
    pub status: u16,
    pub body: Vec<u8>,
    pub trace: Option<String>,
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<Resp> {
        let head = format!(
            "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n",
            body.len()
        );
        let mut req = head.into_bytes();
        req.extend_from_slice(body.as_bytes());
        self.stream.write_all(&req)?;
        self.read_response()
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<Resp> {
        let req = format!("GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n");
        self.stream.write_all(req.as_bytes())?;
        self.read_response()
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self) -> std::io::Result<Resp> {
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let (mut len, mut trace) = (None, None);
        for line in lines {
            let Some((k, v)) = line.split_once(':') else {
                continue;
            };
            let k = k.trim();
            if k.eq_ignore_ascii_case("content-length") {
                len = v.trim().parse::<usize>().ok();
            } else if k.eq_ignore_ascii_case("x-prophet-trace") {
                trace = Some(v.trim().to_string());
            }
        }
        let len = len.ok_or_else(|| bad("response without content-length"))?;
        let start = head_end + 4;
        while self.buf.len() < start + len {
            self.fill()?;
        }
        let body = self.buf[start..start + len].to_vec();
        self.buf.drain(..start + len);
        Ok(Resp {
            status,
            body,
            trace,
        })
    }
}

/// One measured request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub class: u16,
    pub rtt_ns: u64,
}

/// What one connection did in the measured window.
#[derive(Default)]
pub struct ConnReport {
    pub samples: Vec<Sample>,
    /// Requests that got a non-200, a wrong body, or a transport error.
    pub failed: u64,
    /// Failures during warm-up (not in the window, but still wrong).
    pub warmup_failed: u64,
    /// `(trace id, rtt)` of every window request, when asked for.
    pub traces: Vec<(String, u64)>,
    pub first_error: Option<String>,
    /// Wall time from the window start to this connection's last answer.
    pub elapsed: Duration,
}

/// How the closed loop is timed.
pub struct LoopPlan<'a> {
    pub addr: &'a str,
    pub warmup: Duration,
    pub window: Duration,
    pub keep_traces: bool,
    /// Connections + the coordinating thread: everyone meets after the
    /// warm-up (so the coordinator can snapshot counters) and again to
    /// start the window together.
    pub barrier: &'a Barrier,
}

/// Drive connection `conn` of `mix` in a closed loop: send the next
/// request only when the previous one has answered. Warm-up and window
/// both run whole decks, so the window holds every request class in its
/// exact mix proportion; the window ends at the first deck boundary
/// after `plan.window` has elapsed. Every response is checked against
/// its digest.
pub fn drive(mix: &Mix, conn_idx: usize, plan: &LoopPlan) -> ConnReport {
    let mut rep = ConnReport::default();
    let mut conn = match Conn::connect(plan.addr) {
        Ok(c) => Some(c),
        Err(e) => {
            rep.first_error = Some(format!("connect: {e}"));
            None
        }
    };
    let deck = mix.deck_len();
    let mut k = 0usize;
    let mut send = |k: usize, rep: &mut ConnReport, window: bool| -> (u16, u64) {
        let req = mix.request(conn_idx, k);
        let t0 = Instant::now();
        let result = match conn.as_mut() {
            Some(c) => c.post("/v1/predict", &req.body),
            None => Err(std::io::Error::other("no connection")),
        };
        let rtt = t0.elapsed().as_nanos() as u64;
        let problem = match &result {
            Ok(r) if r.status != 200 => Some(format!("status {} for {}", r.status, req.body)),
            Ok(r) if Some(digest32(&r.body)) != mix.digest(req.slot) => Some(format!(
                "response bytes differ from the digest for {}",
                req.body
            )),
            Ok(_) => None,
            Err(e) => {
                conn = Conn::connect(plan.addr).ok();
                Some(format!("transport: {e}"))
            }
        };
        if let Some(p) = problem {
            if window {
                rep.failed += 1;
            } else {
                rep.warmup_failed += 1;
            }
            rep.first_error.get_or_insert(p);
        }
        if window && plan.keep_traces {
            if let Ok(Resp { trace: Some(t), .. }) = &result {
                rep.traces.push((t.clone(), rtt));
            }
        }
        (req.class, rtt)
    };
    let t_warm = Instant::now();
    loop {
        for _ in 0..deck {
            send(k, &mut rep, false);
            k += 1;
        }
        if t_warm.elapsed() >= plan.warmup || mix.exhausted(k) {
            break;
        }
    }
    plan.barrier.wait();
    plan.barrier.wait();
    let t0 = Instant::now();
    loop {
        for _ in 0..deck {
            let (class, rtt_ns) = send(k, &mut rep, true);
            rep.samples.push(Sample { class, rtt_ns });
            k += 1;
        }
        if t0.elapsed() >= plan.window || mix.exhausted(k) {
            break;
        }
    }
    rep.elapsed = t0.elapsed();
    rep
}
