//! Poll-counting future wrappers for the traced `port` and `exec` layers.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};

/// Resolves to the inner output and the number of polls it took; more
/// than one poll means the operation parked.
pub struct Polls<F> {
    inner: F,
    polls: u32,
}

impl<F: Future + Unpin> Polls<F> {
    pub fn new(inner: F) -> Self {
        Polls { inner, polls: 0 }
    }
}

impl<F: Future + Unpin> Future for Polls<F> {
    type Output = (F::Output, u32);

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.polls += 1;
        match Pin::new(&mut self.inner).poll(cx) {
            Poll::Ready(v) => Poll::Ready((v, self.polls)),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Counts every poll of a spawned task into a shared counter.
pub struct TaskPolls<F> {
    inner: Pin<Box<F>>,
    counter: Arc<AtomicU64>,
}

impl<F: Future> TaskPolls<F> {
    pub fn new(inner: F, counter: Arc<AtomicU64>) -> Self {
        TaskPolls {
            inner: Box::pin(inner),
            counter,
        }
    }
}

impl<F: Future> Future for TaskPolls<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        self.counter.fetch_add(1, Ordering::Relaxed);
        self.inner.as_mut().poll(cx)
    }
}

/// Spawn `task` detached on `exec`, counting its polls into `polls` when
/// given; the task reports its own result.
pub fn spawn(
    exec: &reo_exec::Executor,
    polls: Option<Arc<AtomicU64>>,
    task: impl Future<Output = ()> + Send + 'static,
) {
    match polls {
        Some(p) => drop(exec.spawn(TaskPolls::new(task, p))),
        None => drop(exec.spawn(task)),
    }
}
