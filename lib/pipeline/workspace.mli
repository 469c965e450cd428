(** Pooled per-request buffer arenas for the reconstruction service.

    One direct reconstruction needs an oversampled [g^dims] grid, an FFT
    line-gather buffer, an [n^dims] image, a CG state-vector set and a
    density-weighted value vector. Allocating those per request is pure
    churn under serving load; this pool retains {e slots} of
    capacity-grown backing buffers and hands out exact-length views
    ({!Bigarray.Array1.sub}) into them. After warmup a steady-state
    request allocates only the view wrappers and the arena record —
    O(1) minor words per request, pinned by the workspace tests.

    Reuse safety: arena contents are {e not} cleared on checkout; every
    pipeline stage that consumes a view overwrites it completely
    ([Sample_plan.spread_into] zeroes the grid, the FFT scratch is
    gathered before use, crop/pad and the CG solver initialise their
    buffers), so results through a reused arena are bitwise identical to
    fresh buffers — also pinned by the tests, for every registered
    backend.

    Checkout/checkin are mutex-protected; concurrent requests each hold a
    private slot. Telemetry counters: [svc.arena_checkout],
    [svc.arena_reuse], [svc.arena_grow]. *)

type t

type slot
(** Backing storage owned by the pool (opaque). *)

type arena = {
  grid : Numerics.Cvec.t;  (** [g^dims] oversampled grid *)
  line : Numerics.Cvec.t;
      (** line buffer of the requested length (the reconstruction
          service requests none: its FFT stages through a domain-local
          scratch) *)
  image : Numerics.Cvec.t;  (** [n^dims] result staging *)
  cg : Imaging.Cg.buffers;  (** CG state vectors, length [n^dims] *)
  vals : Numerics.Cvec.t;  (** density-weighted sample values, length m *)
  slot : slot;
}

type stats = {
  checkouts : int;
  reuses : int;  (** checkouts served by a retained slot *)
  grows : int;  (** backing-buffer reallocations (warmup only) *)
  retained : int;  (** free slots currently pooled *)
  in_use : int;
      (** arenas checked out and not yet returned — 0 in any quiescent
          state; the serving tier's fault-injection tests assert this to
          prove no request path leaks its arena *)
}

val create : unit -> t

val checkout :
  t -> grid:int -> line:int -> image:int -> samples:int -> arena
(** Borrow an arena with views of the given complex lengths; backing
    buffers grow to fit and are retained for reuse. *)

val checkin : t -> arena -> unit
(** Return the arena's slot to the pool. The arena's views must not be
    used afterwards. *)

val with_arena :
  t ->
  grid:int ->
  line:int ->
  image:int ->
  samples:int ->
  (arena -> 'a) ->
  'a
(** Checkout / run / checkin, exception-safe. *)

val stats : t -> stats
