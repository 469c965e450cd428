(** Batched reconstruction request/response service.

    The serving shape the ROADMAP's north star asks for: accept a batch
    of reconstruction requests, schedule them across the domain pool, and
    amortise everything amortisable — plans and trajectory decompositions
    through the {!Plan_cache} (requests sharing a trajectory build once
    and replay), per-request buffers through the {!Workspace} arenas
    (steady-state serving allocates O(1) minor words on the direct path).

    Error discipline: every failure mode of a request — malformed
    parameters, unknown backend, backend validation, reconstruction
    errors — is returned as a typed [Error]; no exception escapes
    {!submit} or {!submit_batch} (asserted by the tests, and required by
    the batch scheduler: an exception inside the pool would poison the
    whole submission).

    Concurrency model: batch requests are scheduled one-per-chunk over
    the service pool, so independent requests overlap on different
    domains. Cached operators are always built {e pool-less} — their
    transforms run inside the pool's own [parallel_for], where a nested
    submission would deadlock; parallelism comes from request-level
    overlap, not intra-transform threading.

    Telemetry: [svc.request] / [svc.batch] spans (tagged with backend and
    method), [svc.requests] / [svc.errors] / [svc.batches] counters, plus
    the cache and arena counters of the underlying components. *)

type method_ =
  | Adjoint  (** direct density-compensated gridding reconstruction *)
  | Cg of int
      (** iterative reconstruction: CG on the normal equations
          [A^H W A x = A^H W y], with the given iteration budget *)

type request = {
  backend : string;
      (** registered operator backend name, or ["auto"] (or the retired
          ["replay-simd"]): resolved by {!Nufft.Operator.resolve_backend}
          to ["serial"], whose replay dispatches on the SIMD state *)
  transform : Nufft.Transform.t;
      (** which transform to apply. [Type1] is the reconstruction path
          (adjoint or CG); [Type2] evaluates the request's [values] — an
          [n^dims] image — at the trajectory and returns the M k-space
          values in [response.image] (unscaled, [iterations = 0], density
          must be [None], method must be [Adjoint]); [Type3] treats the
          trajectory as arbitrary source frequencies and reconstructs on
          the centred lattice via the scale/shift decomposition
          ({!Nufft.Plan.make_type3}), density-weighting and [1/m]-scaling
          like the type-1 adjoint ([Adjoint] only). *)
  n : int;  (** image size per dimension *)
  coords : Nufft.Sample.t;
      (** trajectory in grid units on the oversampled grid
          [g = round (sigma * n)] *)
  values : Numerics.Cvec.t;  (** k-space data, one value per sample *)
  density : float array option;  (** optional density-compensation weights *)
  method_ : method_;
  tol : float option;
      (** requested relative accuracy; overrides the service's [w]/[l]
          geometry with tolerance-derived kernel + width + table (see
          {!Nufft.Plan.make}). Requests at different tolerances never
          share a cached plan. *)
  family : Numerics.Window.family option;
      (** kernel family for [tol]-driven requests (default ES); without
          [tol], selects the default kernel family at the service width *)
}

type response = {
  image : Numerics.Cvec.t;
      (** centred row-major [n^dims] image (type-1/type-3); for type-2
          requests, the M evaluated k-space values *)
  iterations : int;  (** CG iterations performed; 0 for {!Adjoint} *)
  elapsed_s : float;
}

type error =
  | Invalid_request of string
      (** malformed parameters, unknown backend, geometry mismatch *)
  | Recon_error of Imaging.Recon.error
  | Internal of string  (** caught unexpected exception *)

val error_message : error -> string

type t

val create :
  ?pool:Runtime.Pool.t ->
  ?cache:Plan_cache.t ->
  ?workspace:Workspace.t ->
  ?w:int ->
  ?sigma:float ->
  ?l:int ->
  unit ->
  t
(** A service instance. [pool] enables request-level parallelism for
    {!submit_batch}; [cache] / [workspace] default to fresh instances
    (share them to share amortisation across services); [w] / [sigma] /
    [l] are the NuFFT geometry applied to every request. An omitted [w]
    or [l] takes {!Nufft.Plan.make}'s default at [sigma]. *)

val cache : t -> Plan_cache.t
val workspace : t -> Workspace.t

val operator :
  ?tol:float ->
  ?family:Numerics.Window.family ->
  ?transform:Nufft.Transform.t ->
  t ->
  backend:string ->
  n:int ->
  coords:Nufft.Sample.t ->
  (Nufft.Operator.op * Nufft.Sample.t, error) result
(** The cached operator (and canonical coordinates) this service would
    use for requests with this backend, size, trajectory and tolerance —
    built with the service's geometry (or the [tol]-derived one) and the
    same cache key as {!submit}, so a caller that needs the raw operator
    (forward acquisition, backend stats) shares the entry with subsequent
    requests. *)

val submit : t -> request -> (response, error) result
(** Execute one request synchronously. Warm-cache requests on a
    plan-backed backend run the arena fast path: replay-spread into the
    arena grid, pruned in-place FFT, de-apodization — bitwise identical to
    [Imaging.Recon.reconstruct_op], zero plan builds. Direct submissions
    run on the caller's thread, so the fast path's FFT passes use the
    service pool (bit-identical to the serial passes); batch-scheduled
    requests keep every transform single-domain and overlap across
    requests instead. *)

val submit_batch : t -> request list -> (response, error) result list
(** Execute a batch, scheduled across the service pool (one request per
    chunk; serial without a pool). Results are in request order; each
    request fails independently. *)
