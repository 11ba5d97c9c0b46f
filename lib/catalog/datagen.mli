(** Synthetic data generation.

    A schema is described by table specs; [materialize] produces both the
    rows (for the tuple-level executor) and a catalog whose statistics are
    *derived from the generated rows*, so the estimator, the cost model and
    the executor all describe the same database. *)

type gen =
  | Serial  (** 0, 1, 2, ... — a primary key *)
  | Uniform_int of int * int  (** inclusive bounds *)
  | Zipf_int of int * float  (** [Zipf_int (n, theta)] draws in [1..n] *)
  | Uniform_float of float * float
  | Fk of string  (** uniform reference to the [Serial] key of that table *)
  | String_pool of int  (** one of [n] distinct strings "s0".."s(n-1)" *)

type table_spec = {
  name : string;
  rows : int;
  columns : (string * gen) list;
  disks : int list;  (** placement, as in {!Table.t} *)
}

type database = {
  catalog : Catalog.t;
  data : (string * Value.t array array) list;
      (** per table, rows in generation order; row.(i) matches column i *)
  index_order : (string * Value.t array array) list;
      (** per index name, its table's rows in the index's key order: the
          rows of [data], stably sorted on the index columns under
          {!Value.compare_at}, computed once *)
}

val spec :
  name:string -> rows:int -> columns:(string * gen) list -> ?disks:int list ->
  unit -> table_spec
(** [disks] defaults to [[0]]. *)

val materialize :
  ?indexes:Index.t list -> Parqo_util.Rng.t -> table_spec list -> database
(** Generates every table (specs may reference earlier specs via [Fk]),
    derives column statistics from the rows, and assembles the catalog.
    Raises [Invalid_argument] if an [Fk] references an unknown or
    not-yet-generated table, or a spec has zero rows. *)

val rows_of : database -> string -> Value.t array array
(** Raises [Not_found]. *)

val index_rows : database -> string -> Value.t array array
(** [index_rows db name]: the rows of index [name]'s table in its key
    order.  Raises [Not_found] for an index [materialize] was not given. *)
