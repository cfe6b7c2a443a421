//! BENCH_4: the real (not modeled) multicast data plane of §4.3.3,
//! measured against the paper-faithful unicast one at each degree of
//! replication.
//!
//! One record per `(mode, replicas)`: real time per call and the
//! client's `sendmsg` count. Every field is deterministic (fixed-seed
//! world), so the file is byte-identical across reruns.
//!
//! [`gate`] checks the reason multicast exists: a 5-member call costs
//! the client fewer `sendmsg`s than the unicast data plane.

use crate::record::{find, fixed, Record};
use crate::testbed::run_circus_echo_mode;

/// The heading the records print under.
pub const TITLE: &str = "BENCH_4: unicast vs multicast call data plane (m+n messages, §4.3.3)";

/// Builds the BENCH_4 records. `quick` shrinks the call count.
pub fn records(quick: bool) -> Vec<Record> {
    let calls: u32 = if quick { 50 } else { 500 };
    let mut out = Vec::new();
    for multicast in [false, true] {
        let mode = if multicast { "multicast" } else { "unicast" };
        for n in 1..=5usize {
            let r = run_circus_echo_mode(n, calls, multicast);
            out.push(
                Record::new("bench4")
                    .key("mode", mode)
                    .key("replicas", n)
                    .key("calls", calls)
                    .det("real_ms", fixed(r.real_ms, 2))
                    .det("client_sendmsgs", r.client_sendmsgs()),
            );
        }
    }
    out
}

/// Gate: the 5-member multicast call plane must beat unicast on client
/// `sendmsg` count.
pub fn gate(records: &[Record]) -> Result<String, String> {
    let sendmsgs = |mode: &str| {
        find(records, &[("mode", mode.into()), ("replicas", 5u32.into())])?.num("client_sendmsgs")
    };
    let (uni, mc) = (sendmsgs("unicast")?, sendmsgs("multicast")?);
    if mc >= uni {
        return Err(format!(
            "multicast sendmsg count ({mc}) not below unicast ({uni}) for 5-member calls"
        ));
    }
    Ok(format!(
        "5-member call: {mc} sendmsg (multicast) < {uni} (unicast)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_fires_unless_multicast_sends_less() {
        let five = |mode: &str, sendmsgs: u64| {
            Record::new("bench4")
                .key("mode", mode)
                .key("replicas", 5u32)
                .det("client_sendmsgs", sendmsgs)
        };
        assert!(gate(&[five("unicast", 250), five("multicast", 50)]).is_ok());
        assert!(gate(&[five("unicast", 250), five("multicast", 250)]).is_err());
        assert!(gate(&[five("unicast", 250)]).is_err());
    }
}
