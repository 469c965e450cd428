(** Process-wide stores of immutable, geometry-keyed tables that never
    keep a table alive by themselves.

    A store is a weak hash set ({!Weak.Make}) of values that carry their
    own key: [H.equal]/[H.hash] look at the key fields only. Callers keep
    the values they are handed; once none does, a major GC clears the
    entry and the next request for that key builds it again. So a store
    can be keyed on caller-supplied geometry (a tolerance read off the
    wire) without growing with the set of geometries ever seen.

    As in [Fft1d]'s twiddle cache, a mutex guards the set and a miss
    builds outside the lock, so one slow build never serialises lookups
    of other keys. Concurrent builders of one key each build a candidate,
    and all adopt whichever was merged first: every caller of one key
    sees one physically equal value. *)

module Make (H : Hashtbl.HashedType) : sig
  val find_or_build : H.t -> (unit -> H.t) -> H.t * bool
  (** [find_or_build probe build] is the live value equal to [probe]
      (compared by [H.equal]), or else the value [build ()] returns,
      adopted into the store unless a concurrent builder got there
      first. The flag is [true] when the returned value is the one this
      call built. [probe] itself is never stored, so its non-key fields
      may be placeholders; [build] runs outside the lock and may raise,
      leaving the store unchanged. Safe to call from any domain. *)
end
