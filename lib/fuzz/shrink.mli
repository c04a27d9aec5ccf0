(** Delta-debugging minimizer for failing fuzz instances.

    Given an instance whose {!Oracle.check} (or any caller-supplied
    predicate) fails, [minimize] greedily applies the first
    failure-preserving simplification and restarts, until no candidate
    preserves the failure:

    - drop one node (with its incident edges), highest id first;
    - drop one edge;
    - loosen the constraints: set [P<] to [infinity], double [T] (up to a
      small cap, so repros stay readable).

    The failure must stay in the same {!Oracle.bucket}, so shrinking never
    wanders from the original bug to a different one. The search is fully
    deterministic (no randomness), never returns an instance with more
    nodes or edges than the input, and the result still fails the
    predicate. *)

type predicate = Sampler.instance -> Oracle.failure option

(** [minimize ~predicate ~bucket inst] shrinks [inst], accepting at most
    200 simplifications. Returns the minimized instance and its
    (bucket-equal) failure.

    @raise Invalid_argument when [predicate inst] itself does not fail in
    [bucket] — minimizing a non-failure is a caller bug. *)
val minimize :
  predicate:predicate ->
  bucket:string ->
  Sampler.instance ->
  Sampler.instance * Oracle.failure
