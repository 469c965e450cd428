(** Per-tenant service sharding for the serving tier.

    Each tenant name maps to its own {!Pipeline.Recon_service} backed by
    a {e bounded} {!Pipeline.Plan_cache} (entry/byte quotas from
    {!config}), so tenants amortise plans among their own requests but
    cannot evict each other's. All tenants share one
    {!Pipeline.Workspace} — arenas are request-scoped, so sharing is
    amortisation without cross-tenant state. The tenant table itself is
    quota'd: past [max_tenants], admission fails with the typed
    {!Protocol.Quota} status. *)

type config = {
  max_tenants : int;
  cache_entries : int;  (** per-tenant plan-cache entry quota *)
  cache_bytes : int option;  (** per-tenant plan-cache byte quota *)
  default_backend : string;  (** used when the wire request says [""] *)
  sigma : float;  (** NuFFT oversampling; fixes [g = round (sigma * n)] *)
}

val default_config : config
(** 64 tenants, 8 cache entries each, backend ["serial"], [sigma = 2]. *)

type t

val create : ?config:config -> unit -> t
val workspace : t -> Pipeline.Workspace.t
val count : t -> int

val service : t -> string -> (Pipeline.Recon_service.t, Protocol.status * string) result
(** Find-or-create the named tenant's service. *)

val cache_stats : t -> (string * Pipeline.Plan_cache.stats) list
(** Per-tenant plan-cache statistics, sorted by tenant name. *)

val handle :
  t ->
  Protocol.recon_request ->
  (Protocol.recon_response, Protocol.status * string) result
(** Execute one wire reconstruction request on its tenant's service:
    validates wire-level invariants (dims/axis lengths, finite
    coordinates and density weights, CG iteration cap), converts omega
    radians to grid-unit coordinates at [g = round (sigma * n)], submits
    synchronously, and maps service errors to wire statuses. Never
    raises. *)
