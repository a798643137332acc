(** The layered evaluation engine — the one way design points get
    evaluated anywhere in the system.

    {v
        Backend   fidelity levels as values: full, lowlevel,
           |      quick_gate composition (two-tier engine)
         Store    point cache + tri-schedule memo + counters,
           |      fork/absorb for domains, save/load via Persist
          Hls     scheduling, estimation, P&R degradation
    v}

    [Pool] runs the domains of a parallel sweep. [Dse] (the search, the
    sweep and the multi-kernel driver) sits on top and never calls the
    estimator directly: every evaluation goes [Backend.evaluate] →
    [Store] → synthesis on miss. *)

module Util = Util
module Store = Store
module Backend = Backend
module Persist = Persist
module Pool = Pool
