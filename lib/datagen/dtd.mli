(** DTD content models.

    A minimal model of XML DTDs sufficient to express the schemas used in
    the paper's evaluation (e.g. the manager/department/employee DTD of
    Sec. 5.2) and to drive random document generation ({!Dtd_gen}), standing
    in for the IBM XML generator. *)

type particle =
  | Pcdata  (** [#PCDATA] *)
  | Elem_ref of string  (** reference to a declared element *)
  | Seq of particle list  (** [(a, b, c)] *)
  | Choice of particle list  (** [(a | b | c)] *)
  | Opt of particle  (** [p?] *)
  | Star of particle  (** [p*] *)
  | Plus of particle  (** [p+] *)
  | Empty  (** [EMPTY] *)

type element_decl = { name : string; content : particle }

type t

val make : element_decl list -> t
(** Build a DTD from declarations.  Raises [Invalid_argument] on duplicate
    element declarations or on references to undeclared elements. *)

val find : t -> string -> element_decl option

val reachable : t -> string -> string list
(** Element names reachable from (and including) the given element. *)
