//! Recording: an [`EventObserver`] that streams every fired event to an
//! `io::Write` sink in the `codec` wire format.
//!
//! The recorder is a cheap-clone handle (`Rc`-shared single-threaded state,
//! the same idiom as [`crate::metrics::SharedMetrics`]): clone one half into
//! [`Simulation::set_observer`](crate::Simulation::set_observer) and keep
//! the other to call [`EventRecorder::finish`] after the run. Memory stays
//! bounded — each record is encoded into one reused scratch buffer and
//! written straight through; nothing accumulates in the recorder no matter
//! how long the run is. With no recorder attached the simulation's only
//! cost is a branch on a `None` (proven allocation-free by
//! `crates/bench/tests/alloc_count.rs`).

use super::codec::{self, EventCodec};
use crate::event::Event;
use crate::simulation::EventObserver;
use bytes::BytesMut;
use std::cell::RefCell;
use std::io::{self, Write};
use std::marker::PhantomData;
use std::rc::Rc;

struct RecorderInner {
    sink: Box<dyn Write>,
    /// Reused per-event payload encoding buffer.
    payload_scratch: BytesMut,
    /// Reused per-event frame (header + payload copy) buffer.
    frame_scratch: BytesMut,
    count: u64,
    finished: bool,
    error: Option<io::Error>,
}

/// Streams fired events to a sink; see the module docs for the protocol.
pub struct EventRecorder<E> {
    inner: Rc<RefCell<RecorderInner>>,
    _marker: PhantomData<fn(&E)>,
}

impl<E> Clone for EventRecorder<E> {
    fn clone(&self) -> Self {
        Self {
            inner: Rc::clone(&self.inner),
            _marker: PhantomData,
        }
    }
}

impl<E: EventCodec> EventRecorder<E> {
    /// A recorder writing to `sink`; the header is written immediately.
    pub fn to_writer(mut sink: impl Write + 'static) -> io::Result<Self> {
        let mut frame_scratch = BytesMut::with_capacity(256);
        codec::write_header(&mut frame_scratch);
        sink.write_all(&frame_scratch)?;
        Ok(Self {
            inner: Rc::new(RefCell::new(RecorderInner {
                sink: Box::new(sink),
                payload_scratch: BytesMut::with_capacity(256),
                frame_scratch,
                count: 0,
                finished: false,
                error: None,
            })),
            _marker: PhantomData,
        })
    }

    /// An in-memory recorder; [`MemorySink::take`] on the returned sink
    /// yields the finished log bytes.
    ///
    /// No production caller: public for `crates/des/tests/record_replay.rs`.
    pub fn in_memory() -> (Self, MemorySink) {
        let sink = MemorySink::default();
        let rec = Self::to_writer(sink.clone()).expect("Vec sink cannot fail");
        (rec, sink)
    }

    /// Write the counted end marker, flush the sink, and return the event
    /// count. Must be called exactly once, after the run; a recorder dropped
    /// without `finish` leaves a log with no end marker, which the decoder
    /// reports as truncated. Any I/O error swallowed during recording (the
    /// observer callback has nowhere to return one) is surfaced here.
    pub fn finish(self) -> io::Result<u64> {
        let mut inner = self.inner.borrow_mut();
        if let Some(e) = inner.error.take() {
            return Err(e);
        }
        assert!(!inner.finished, "EventRecorder::finish called twice");
        inner.finished = true;
        let count = inner.count;
        inner.frame_scratch.clear();
        let RecorderInner {
            sink,
            frame_scratch,
            ..
        } = &mut *inner;
        codec::write_end(frame_scratch, count);
        sink.write_all(frame_scratch)?;
        sink.flush()?;
        Ok(count)
    }
}

impl<E: EventCodec> EventObserver<E> for EventRecorder<E> {
    fn on_fire(&mut self, event: &Event<E>) {
        let mut inner = self.inner.borrow_mut();
        if inner.error.is_some() || inner.finished {
            return;
        }
        let RecorderInner {
            sink,
            payload_scratch,
            frame_scratch,
            count,
            error,
            ..
        } = &mut *inner;
        // The payload length is a frame field, so the payload is encoded
        // first (into its own reused buffer), then framed and written.
        payload_scratch.clear();
        event.payload.encode_payload(payload_scratch);
        frame_scratch.clear();
        codec::write_event(
            frame_scratch,
            event.id,
            event.time,
            event.src,
            event.dst,
            payload_scratch,
        );
        *count += 1;
        if let Err(e) = sink.write_all(frame_scratch) {
            *error = Some(e);
        }
    }
}

/// A cloneable in-memory `Write` sink (single-threaded, like the rest of a
/// live simulation).
#[derive(Debug, Clone, Default)]
pub struct MemorySink(Rc<RefCell<Vec<u8>>>);

impl MemorySink {
    /// Take the accumulated bytes out, leaving the sink empty.
    pub fn take(&self) -> Vec<u8> {
        std::mem::take(&mut self.0.borrow_mut())
    }

    /// Bytes accumulated so far.
    ///
    /// No production caller: public for `crates/des/tests/record_replay.rs`.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// Whether nothing has been written yet.
    ///
    /// No production caller: public for `crates/des/tests/record_replay.rs`.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }
}

impl Write for MemorySink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
