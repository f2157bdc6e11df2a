"""The real (non-simulated) runtime for the protocol stack, and its wire codec.

The protocol code is written against :class:`repro.sim.process.Env`, so the
same :class:`repro.core.replica.Replica` and :class:`repro.client.client.Client`
objects run unmodified on :class:`repro.transport.tcp.TcpRuntime` — real TCP
sockets on localhost with length-prefixed frames of packed message fields
(:mod:`repro.transport.codec`), as in the paper's prototype, driven by one
plain ``selectors`` loop thread.

It shows that the protocol layer is simulator-agnostic. The paper's
figures come from the simulator, where time is controlled; what the host
pays for a real request is measured on ``TcpRuntime`` itself, by the
benchmark suite's ``tcp-write`` workload.
"""
