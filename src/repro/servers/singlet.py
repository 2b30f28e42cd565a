"""Single-threaded asynchronous server (the paper's SingleT-Async).

One thread performs both event monitoring (epoll) and event handling, like
Node.js or Lighttpd.  There are no context switches at all, which makes it
the fastest architecture for small in-memory responses (Figure 4a) — and
the *worst* once responses outgrow the TCP send buffer, because its naive
run-to-completion write path spins on ``socket.write()`` and occupies the
only thread for the entire wait-ACK drain of each large response
(Figures 4c, 7: a 95 % throughput collapse with 5 ms network latency).
"""

from __future__ import annotations

from repro.errors import ConnectionClosedError
from repro.net.selector import EVENT_READ, Selector
from repro.net.tcp import Connection
from repro.servers.base import BaseServer, naive_spin_write

__all__ = ["SingleThreadedServer"]


class SingleThreadedServer(BaseServer):
    """Single-threaded event loop with a naive (spinning) write path."""

    architecture = "SingleT-Async"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.selector = Selector(self.env)
        self.thread = self.cpu.thread(f"{self.name}-loop")
        self.env.process(self._event_loop(), name=f"{self.name}-loop")

    def _on_attach(self, connection: Connection) -> None:
        self.selector.register(connection, EVENT_READ)

    # ------------------------------------------------------------------
    def _event_loop(self):
        calib = self.calibration
        thread = self.thread
        while True:
            ready = yield self.selector.poll()
            # One epoll_wait syscall per loop iteration, amortised over
            # every ready connection it returns.
            yield thread.run_split(
                calib.syscall_user_cost,
                calib.poll_cost + calib.poll_cost_per_event * len(ready),
            )
            for connection, _mask in ready:
                try:
                    while connection.readable:
                        request = yield from self._read_request(thread, connection)
                        if request is None:
                            break
                        response_size = yield from self._service(thread, request)
                        # Naive one-event-one-handler write: runs the
                        # response to completion, spinning on the buffer.
                        yield from naive_spin_write(
                            self, thread, connection, request, response_size
                        )
                        self._finish(request)
                except ConnectionClosedError:
                    # Client disconnected mid-request: account the abort,
                    # drop the connection and move on.
                    self._abort_connection(connection)
                    self.selector.unregister(connection)
